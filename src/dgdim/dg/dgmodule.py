"""DG-modules over a DGRing, presented by generators and a differential.

A generator g carries a cohomological degree, an internal twist, a kind and
a shift parity sigma.  Kind "free" spans a free A-summand (one slot per
ring basis element); kind "h0" spans a cyclic H^0(A)-module (unit slot
only, negative ring basis acting as zero, extra annihilator relations
allowed) -- restriction of scalars along the augmentation A -> H^0.

The differential is stored generator-to-generator as ring elements
alpha[j][i] with the raw-expansion convention

    d(g_j) = sum_i sum_b (alpha[j][i])_b [b g_i],

square brackets denoting the underlying slot symbols.  The parity sigma
records how many shifts the generator has absorbed: the slot-level
differential and the module action pick up the signs

    d[b g_j] = (-1)^{sigma_j} [(d_A b) g_j]
             + sum_i (-1)^{(sigma_j + sigma_i + 1)|b|} [(b alpha[j][i]) g_i]
    a . [b g_j] = (-1)^{sigma_j |a|} [(a b) g_j]

which make shifting a module by [n] the data change (cohdeg -= n,
sigma += n, alpha *= (-1)^n).  All slot coefficients live in the slot's
coefficient ring; d^2 = 0 is checked modulo the slot relations.

Cohomology is that of the underlying presented complex, over the slot
support.  inf_h scans it upward and sup_h downward, each stopping at the
first nonzero degree; cohomology_support tests every degree.  A DG-module
carries no trust window: only a cut-off semifree resolution does (see
tower.py), and the readers of a resolution take the window from it.

A module whose generators are all free is semifree (the differential only
raises the generator degree, A being non-positive), so along the
regular-element model A -> A' of dgring.py its derived base change is
A' (x)_A M: the same generators, each differential entry pushed along the
symbol map.  over_model builds it once; inf_h and sup_h, and the dimension
queries, scan it in place of M.  Whatever reads M's own slots (cohomology
representatives, the tower, Hom into M) stays on M.

Hom out of a semifree module is the underlying complex of a DG-module.
Let SF have free generators e_j (cohdeg a_j, twist s_j, parity sigma_j)
and M generators g_i (cohdeg c_i, twist t_i, parity tau_i).  A map of
degree n sends e_j to sum_sym p [sym g_i] with c_i + |sym| - a_j = n, so
Hom_A(SF, M) is spanned by slots [sym h_(j,i)] of a module H with one
generator h_(j,i) per pair: cohdeg c_i - a_j, twist t_i - s_j, and the
kind, relations and parity tau_i of g_i.  Its differential is

    d(phi) = d_M o phi - (-1)^n phi o d_SF.

The first term is d_M on the value slot, which is the M entry alpha on
h_(j,i) -> h_(j,i').  The second sends [sym h_(j,i)] to
-(-1)^n (-1)^{(sigma_j + n)|b|} b . [sym g_i] at e_{j2}, for each entry
beta_{j2,j} = sum_b (beta)_b b of d_SF; all such b have the degree
|b| = a_{j2} + 1 - a_j.  The action gives b . [sym g_i] =
(-1)^{tau_i |b|} [(b sym) g_i], and b sym = (-1)^{|b||sym|} sym b.  An
entry gamma on h_(j,i) -> h_(j2,i), both of parity tau_i, expands to
(-1)^{|sym|} [(sym gamma) h_(j2,i)].  The quotient of the two signs is
free of sym, so gamma = eps * beta_{j2,j} with

    eps = -(-1)^{c_i + a_j} (-1)^{|b|(sigma_j + tau_i + c_i + a_j)}.

With h_(j,i) numbered j * len(M.gens) + i, the slots of each degree come
SF-major, then in M's slot order.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..complexes import CohomologyData, PresentedComplex
from ..core.freemod import GradedFreeModule, GradedMatrix
from ..core.poly import Poly
from .dgring import AElem, DGRing


class DGGen:
    __slots__ = ("cohdeg", "twist", "kind", "rels", "sigma")

    def __init__(
        self,
        cohdeg: int,
        twist: int = 0,
        kind: str = "free",
        rels: Sequence[Poly] = (),
        sigma: int = 0,
    ):
        if kind not in ("free", "h0"):
            raise ValueError("kind must be 'free' or 'h0'")
        if kind == "free" and rels:
            raise ValueError("free generators carry no extra relations")
        self.cohdeg = cohdeg
        self.twist = twist
        self.kind = kind
        self.rels = tuple(rels)
        self.sigma = sigma % 2

    def shifted(self, n: int) -> "DGGen":
        return DGGen(
            self.cohdeg - n, self.twist, self.kind, self.rels, self.sigma + n
        )

    def __repr__(self):
        tag = "F" if self.kind == "free" else "H"
        return "%s(%d,%d)%s" % (tag, self.cohdeg, self.twist, "'" * self.sigma)


Slot = Tuple[int, str]  # (generator index, basis symbol)


def _basis_times(A: DGRing, b: str, alpha: AElem) -> Dict[str, Poly]:
    """The nonzero coefficients of b alpha, for a basis element b of A."""
    acc: Dict[str, Poly] = {}
    for sa, p in alpha.coeffs.items():
        hit = A.mul_basis(b, sa)
        if hit is None:
            continue
        sym, sign = hit
        term = p if sign > 0 else -p
        acc[sym] = acc[sym] + term if sym in acc else term
    out: Dict[str, Poly] = {}
    for sym, p in acc.items():
        if A.slot_extra[sym]:
            p = A.slot_ring(sym).normal_form(p)
        if p:
            out[sym] = p
    return out


class DGModule:
    def __init__(
        self,
        dgring: DGRing,
        gens: Sequence[DGGen],
        diff: Dict[int, Dict[int, AElem]],
        check: bool = True,
    ):
        self.A = dgring
        self.gens = tuple(gens)
        clean: Dict[int, Dict[int, AElem]] = {}
        for j, row in diff.items():
            kept = {i: a for i, a in row.items() if a and not a.is_zero()}
            if kept:
                clean[j] = kept
        self.diff = clean
        self._slots_by_deg: Optional[Dict[int, List[Slot]]] = None
        self._underlying: Optional[PresentedComplex] = None
        self._over_model: Optional["DGModule"] = None
        if check:
            self._check_shape()
            u = self.underlying()
            u.validate()

    # -- slot bookkeeping ---------------------------------------------------

    def gen_slots(self, j: int) -> List[str]:
        if self.gens[j].kind == "free":
            return list(self.A.basis)
        return [self.A.unit]

    def slot_cohdeg(self, j: int, sym: str) -> int:
        return self.gens[j].cohdeg + self.A.cohdeg[sym]

    def slot_twist(self, j: int, sym: str) -> int:
        return self.gens[j].twist + self.A.twist[sym]

    def slot_relations(self, j: int, sym: str) -> Tuple[Poly, ...]:
        g = self.gens[j]
        if g.kind == "free":
            return self.A.slot_extra.get(sym, ())
        return tuple(self.A.h0_extra) + g.rels

    def _normal_slot_relations(self, j: int, sym: str) -> Tuple[Poly, ...]:
        """The nonzero base-ring normal forms of slot_relations(j, sym),
        memoized on the DG-ring: a free slot's by its symbol, an h0 slot's
        by its generator's relations (shifts and twists keep them)."""
        g = self.gens[j]
        key = sym if g.kind == "free" else g.rels
        memo = self.A._normal_slot_relations
        out = memo.get(key)
        if out is None:
            nf = self.A.base.normal_form
            out = tuple(q for q in map(nf, self.slot_relations(j, sym)) if q)
            memo[key] = out
        return out

    def slots_by_degree(self) -> Dict[int, List[Slot]]:
        """Slots by cohomological degree, each list in (generator, ring
        basis) order."""
        if self._slots_by_deg is None:
            table: Dict[int, List[Slot]] = {}
            for j in range(len(self.gens)):
                for sym in self.gen_slots(j):
                    table.setdefault(self.slot_cohdeg(j, sym), []).append((j, sym))
            self._slots_by_deg = table
        return self._slots_by_deg

    def support(self) -> List[int]:
        return sorted(self.slots_by_degree())

    def min_slot_cohdeg(self) -> Optional[int]:
        s = self.support()
        return s[0] if s else None

    # -- shape checks -------------------------------------------------------

    def _check_shape(self) -> None:
        A = self.A
        for j, row in self.diff.items():
            gj = self.gens[j]
            for i, alpha in row.items():
                gi = self.gens[i]
                want_coh = gj.cohdeg + 1 - gi.cohdeg
                want_tw = gj.twist - gi.twist
                for sym, p in alpha.coeffs.items():
                    if gi.kind == "h0" and sym != A.unit:
                        raise ValueError(
                            "coefficient hits a missing slot of an h0 generator"
                        )
                    if A.cohdeg[sym] != want_coh:
                        raise ValueError(
                            "entry %d<-%d has wrong cohomological degree" % (i, j)
                        )
                    d = p.degree()
                    if d is not None and d != want_tw - A.twist[sym]:
                        raise ValueError(
                            "entry %d<-%d has wrong internal degree" % (i, j)
                        )

    # -- the slot-level differential ---------------------------------------

    def expand_slot_d(self, j: int, b: str) -> Dict[Slot, Poly]:
        """Coefficients of d[b g_j] on the slots of the target degree, each
        a nonzero normal form.  b alpha is read off the multiplication
        table: b times a basis element is a signed basis element, so each
        coefficient of alpha, a normal form in the base ring, moves to its
        target slot unchanged, and only a slot whose ring is a proper
        quotient of the base (the eps-slot of a trivial extension) needs
        it normalized.

        No two terms land in the same slot, so each is assigned, not added.
        The d_A b term lands on g_j.  Each alpha[j][i] lands on g_i with
        i != j: alpha[j][j] would sit in cohomological degree 1, and A is
        non-positive (_check_shape rejects it on outside input, and no
        internal constructor makes one).  Within one term the symbols of
        d_A b, and of b alpha, are distinct."""
        A = self.A
        gj = self.gens[j]
        out: Dict[Slot, Poly] = {}
        sgn_first = -1 if gj.sigma % 2 else 1
        for sym, coef in A.d_basis(b).items():
            if gj.kind == "h0" and sym != A.unit:
                continue
            out[(j, sym)] = coef if sgn_first > 0 else -coef
        row = self.diff.get(j)
        if row:
            bdeg = A.cohdeg[b]
            for i, alpha in row.items():
                gi = self.gens[i]
                sign = (
                    -1
                    if ((gj.sigma + gi.sigma + 1) * bdeg) % 2
                    else 1
                )
                prod = alpha.coeffs if b == A.unit else _basis_times(A, b, alpha)
                for sym, p in prod.items():
                    if gi.kind == "h0" and sym != A.unit:
                        continue
                    out[(i, sym)] = p if sign > 0 else -p
        return out

    # -- underlying presented complex --------------------------------------

    def underlying(self) -> PresentedComplex:
        if self._underlying is not None:
            return self._underlying
        R = self.A.base
        table = self.slots_by_degree()
        covers: Dict[int, GradedFreeModule] = {}
        rels: Dict[int, GradedMatrix] = {}
        for c, lst in table.items():
            degs = [self.slot_twist(j, sym) for (j, sym) in lst]
            covers[c] = GradedFreeModule(R, degs)
            rel_cols: List[Dict[int, Poly]] = []
            rel_degs: List[int] = []
            for row, (j, sym) in enumerate(lst):
                for r in self._normal_slot_relations(j, sym):
                    rel_cols.append({row: r})
                    rel_degs.append(degs[row] + r.degree())
            rels[c] = GradedMatrix.from_columns(covers[c], rel_degs, rel_cols)
        diffs: Dict[int, GradedMatrix] = {}
        for c, lst in sorted(table.items()):
            tgt_list = table.get(c + 1)
            if not tgt_list:
                continue
            pos = {s: t for t, s in enumerate(tgt_list)}
            cols = []
            for j, b in lst:
                col = {}
                for slot, p in self.expand_slot_d(j, b).items():
                    r = pos.get(slot)
                    if r is None:
                        raise AssertionError("differential leaves the slot table")
                    col[r] = p
                cols.append(col)
            diffs[c] = GradedMatrix(
                covers[c + 1], covers[c], cols, normalize=False
            )
        self._underlying = PresentedComplex(R, covers, diffs, rels)
        return self._underlying

    # -- the regular-element model -----------------------------------------

    def over_model(self) -> "DGModule":
        """A' (x)_A M over the model (A', phi) = A.regular_model() when every
        generator of M is free, else M itself; memoized on M."""
        if self._over_model is None:
            model = self.A.regular_model()
            if model is None or any(g.kind != "free" for g in self.gens):
                self._over_model = self
            else:
                B, phi = model
                diff = {
                    j: {
                        i: AElem(B, {phi[s]: p for s, p in a.coeffs.items() if s in phi})
                        for i, a in row.items()
                    }
                    for j, row in self.diff.items()
                }
                self._over_model = DGModule(B, self.gens, diff, check=False)
        return self._over_model

    # -- cohomology ---------------------------------------------------------

    def cohomology(self, i: int) -> CohomologyData:
        return self.underlying().cohomology(i)

    def cohomology_vanishes(self, i: int) -> bool:
        return self.underlying().cohomology_vanishes(i)

    def _scan_range(self) -> range:
        """The degrees of the slot support, ascending: H vanishes outside
        it."""
        s = self.support()
        return range(s[0], s[-1] + 1) if s else range(0)

    def cohomology_support(self) -> List[int]:
        """Cohomological degrees with nonzero H."""
        return [i for i in self._scan_range() if not self.cohomology_vanishes(i)]

    def sup_h(self) -> Optional[int]:
        """Top nonzero degree, scanning the model down to the first one."""
        M = self.over_model()
        return next(
            (i for i in reversed(M._scan_range()) if not M.cohomology_vanishes(i)),
            None,
        )

    def inf_h(self) -> Optional[int]:
        """Bottom nonzero degree, scanning the model up to the first one."""
        M = self.over_model()
        return next(
            (i for i in M._scan_range() if not M.cohomology_vanishes(i)),
            None,
        )

    def amp_h(self) -> Optional[int]:
        lo = self.inf_h()
        return None if lo is None else self.sup_h() - lo

    def __repr__(self):
        return "DGModule(%s)" % list(self.gens)


# ---------- constructors ----------


def free_dg_module(A: DGRing, placements: Sequence[Tuple[int, int]]) -> DGModule:
    """Free DG-module with one generator per (cohdeg, twist) pair."""
    gens = [DGGen(c, t, "free") for (c, t) in placements]
    return DGModule(A, gens, {}, check=False)


def h0_cyclic_dg_module(A: DGRing, rels: Sequence[Poly] = ()) -> DGModule:
    """Cyclic H^0(A)-module on one generator at cohomological degree 0 and
    internal degree 0, restricted to A along the augmentation."""
    gens = [DGGen(0, 0, "h0", rels=tuple(rels))]
    return DGModule(A, gens, {}, check=False)


def residue_dg_module(A: DGRing) -> DGModule:
    """The residue field H^0/(irrelevant ideal) as a DG-module."""
    return h0_cyclic_dg_module(A, rels=A.base.variables())


def shift_dg(M: DGModule, n: int) -> DGModule:
    """M[n]: component i becomes M^{i+n}; differential and action signs are
    absorbed into the generator data."""
    if n == 0:
        return M
    gens = [g.shifted(n) for g in M.gens]
    diff = M.diff if n % 2 == 0 else {
        j: {i: a.negate() for i, a in row.items()} for j, row in M.diff.items()
    }
    return DGModule(M.A, gens, diff, check=False)


def twist_dg(M: DGModule, t: int) -> DGModule:
    gens = [DGGen(g.cohdeg, g.twist - t, g.kind, g.rels, g.sigma) for g in M.gens]
    return DGModule(M.A, gens, M.diff, check=False)


# ---------- maps and cones ----------


class DGMap:
    """Degree-zero map of DG-modules, generator-to-generator coefficients in
    the same raw-expansion convention as differentials.  It is checked
    through its cone: cone_dg(f, check=True) checks the degrees of the
    entries and d^2 = 0 on the cone, which holds exactly when f commutes
    with the differentials."""

    def __init__(
        self,
        source: DGModule,
        target: DGModule,
        entries: Dict[int, Dict[int, AElem]],
    ):
        self.source = source
        self.target = target
        clean: Dict[int, Dict[int, AElem]] = {}
        for j, row in entries.items():
            kept = {i: a for i, a in row.items() if a and not a.is_zero()}
            if kept:
                clean[j] = kept
        self.entries = clean


def cone_dg(f: DGMap, check: bool = True) -> DGModule:
    """cone(f: X -> Y) = Y + X[1] with the glue column given by f."""
    X, Y = f.source, f.target
    A = Y.A
    ny = len(Y.gens)
    gens = list(Y.gens) + [g.shifted(1) for g in X.gens]
    diff: Dict[int, Dict[int, AElem]] = {j: dict(row) for j, row in Y.diff.items()}
    for j, row in X.diff.items():
        diff[ny + j] = {ny + i: a.negate() for i, a in row.items()}
    # the glue hits generators of Y only, X's shifted rows those of X only
    for j, row in f.entries.items():
        diff.setdefault(ny + j, {}).update(row)
    return DGModule(A, gens, diff, check=check)


# ---------- Hom from a semifree module ----------


def hom_semifree_into_dg(res, M: DGModule) -> PresentedComplex:
    """Hom_A(SF, M) as a presented complex over the base ring, for the
    semifree module SF = res.sf of a SemifreeResolution res (see tower.py);
    SF must have free generators only.  Component n holds the maps of
    degree n: the underlying complex of the DG-module H of the module
    docstring.  A cut-off resolution, faithful above res.known_lo, leaves
    Hom trusted below min slot(M) - res.known_lo; a target without slots
    gets no window."""
    SF = res.sf
    A = SF.A
    if M.A != A:
        raise ValueError("modules over different DG-rings")
    if any(g.kind != "free" for g in SF.gens):
        raise ValueError("source must be semifree (free generators)")
    m = len(M.gens)
    gens = [
        DGGen(g.cohdeg - e.cohdeg, g.twist - e.twist, g.kind, g.rels, g.sigma)
        for e in SF.gens
        for g in M.gens
    ]
    diff: Dict[int, Dict[int, AElem]] = {}
    for j in range(len(SF.gens)):
        for i, row in M.diff.items():
            diff[j * m + i] = {j * m + i2: a for i2, a in row.items()}
    for j2, row in SF.diff.items():
        for j, beta in row.items():
            e = SF.gens[j]
            bdeg = SF.gens[j2].cohdeg + 1 - e.cohdeg
            for i, g in enumerate(M.gens):
                ca = g.cohdeg + e.cohdeg
                odd = (1 + ca + bdeg * (e.sigma + g.sigma + ca)) % 2
                diff.setdefault(j * m + i, {})[j2 * m + i] = (
                    beta.negate() if odd else beta
                )
    u = DGModule(A, gens, diff, check=False).underlying()
    m_lo = M.min_slot_cohdeg()
    hi = None if res.known_lo is None or m_lo is None else m_lo - res.known_lo
    return PresentedComplex(A.base, u.covers, u.diffs, u.rels, known_hi=hi)


# ---------- stock constructions ----------


def direct_sum_dg(M: DGModule, N: DGModule) -> DGModule:
    """Degreewise direct sum with block-diagonal differential."""
    if M.A is not N.A and M.A != N.A:
        raise ValueError("summands live over different DG-rings")
    m = len(M.gens)
    gens = list(M.gens) + list(N.gens)
    diff = {j: dict(row) for j, row in M.diff.items()}
    for j, row in N.diff.items():
        diff[j + m] = {i + m: a for i, a in row.items()}
    return DGModule(M.A, gens, diff, check=False)


def multiplication_map(M: DGModule, a: Poly) -> DGMap:
    """Multiplication by a base-ring element a, as a map M(-|a|) -> M.

    a sits in cohomological degree zero and is central, so the diagonal
    coefficients commute with the differential on the nose; the source is
    twisted to make every entry homogeneous.  The twist is the degree of a
    as given, so an a that reduces to zero keeps it; a is normalized once,
    into the one element every entry shares (nothing mutates an AElem's
    coeffs)."""
    src = twist_dg(M, -(a.degree() or 0))
    elem = M.A.from_base(a)
    entries = {j: {j: elem} for j in range(len(M.gens))} if elem else {}
    return DGMap(src, M, entries)


def koszul_dg_module(A: DGRing, elements: Sequence, check: bool = True) -> DGModule:
    """Iterated mapping cone over multiplication by the given elements.

    With no elements this is the free module of rank one; each further
    element a replaces M by cone(M(-|a|) --a--> M), the same as tensoring
    with the two-term complex A --a--> A.  Zero entries are allowed and
    contribute a split shifted copy.  An element given as a string is
    parsed in the ambient polynomial ring, so one that reduces to zero keeps
    its degree (see multiplication_map)."""
    M = free_dg_module(A, [(0, 0)])
    for a in elements:
        p = a if isinstance(a, Poly) else A.base.ambient.parse(str(a))
        M = cone_dg(multiplication_map(M, p), check=check)
    return M
