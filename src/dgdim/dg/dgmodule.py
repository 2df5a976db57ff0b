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
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..complexes import CohomologyData, PresentedComplex
from ..core.freemod import GradedFreeModule, GradedMatrix
from ..core.module import GradedModule
from ..core.poly import Poly
from ..core.syz import syzygy_engine
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


class DGModule:
    def __init__(
        self,
        dgring: DGRing,
        gens: Sequence[DGGen],
        diff: Dict[int, Dict[int, AElem]],
        known_lo: Optional[int] = None,
        check: bool = True,
        label: str = "",
    ):
        self.A = dgring
        self.gens = tuple(gens)
        clean: Dict[int, Dict[int, AElem]] = {}
        for j, row in diff.items():
            kept = {i: a for i, a in row.items() if a and not a.is_zero()}
            if kept:
                clean[j] = kept
        self.diff = clean
        self.known_lo = known_lo
        self.label = label
        self._slots_by_deg: Optional[Dict[int, List[Slot]]] = None
        self._slot_pos: Dict[Slot, Tuple[int, int]] = {}
        self._underlying: Optional[PresentedComplex] = None
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

    def _slot_relation_block(self, j: int, sym: str) -> GradedMatrix:
        """The nonzero relations of one slot, as a one-row matrix."""
        R = self.A.base
        rels = [R.normal_form(r) for r in self.slot_relations(j, sym)]
        rels = [r for r in rels if not r.is_zero()]
        tw = self.slot_twist(j, sym)
        return GradedMatrix(
            GradedFreeModule(R, [tw]),
            GradedFreeModule(R, [tw + r.degree() for r in rels]),
            [rels],
            normalize=False,
        )

    def slots_by_degree(self) -> Dict[int, List[Slot]]:
        if self._slots_by_deg is None:
            table: Dict[int, List[Slot]] = {}
            for j in range(len(self.gens)):
                for sym in self.gen_slots(j):
                    table.setdefault(self.slot_cohdeg(j, sym), []).append((j, sym))
            for c, lst in table.items():
                lst.sort(key=lambda s: (s[0], self.A.basis.index(s[1])))
                for idx, s in enumerate(lst):
                    self._slot_pos[s] = (c, idx)
            self._slots_by_deg = table
        return self._slots_by_deg

    def slot_position(self, slot: Slot) -> Tuple[int, int]:
        self.slots_by_degree()
        return self._slot_pos[slot]

    def support(self) -> List[int]:
        return sorted(self.slots_by_degree())

    def min_slot_cohdeg(self) -> Optional[int]:
        s = self.support()
        return s[0] if s else None

    def max_slot_cohdeg(self) -> Optional[int]:
        s = self.support()
        return s[-1] if s else None

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
        """Coefficients of d[b g_j] on the slots of the target degree."""
        A = self.A
        gj = self.gens[j]
        out: Dict[Slot, Poly] = {}

        def put(slot: Slot, p: Poly):
            if p.is_zero():
                return
            if slot in out:
                out[slot] = out[slot] + p
            else:
                out[slot] = p

        sgn_first = -1 if gj.sigma % 2 else 1
        for sym, coef in A.d_basis(b).items():
            if gj.kind == "h0" and sym != A.unit:
                continue
            put((j, sym), coef if sgn_first > 0 else -coef)
        row = self.diff.get(j)
        if row:
            b_elem = AElem(A, {b: A.base.one()})
            bdeg = A.cohdeg[b]
            for i, alpha in row.items():
                gi = self.gens[i]
                sign = (
                    -1
                    if ((gj.sigma + gi.sigma + 1) * bdeg) % 2
                    else 1
                )
                prod = b_elem.mul(alpha)
                for sym, p in prod.coeffs.items():
                    if gi.kind == "h0" and sym != A.unit:
                        continue
                    put((i, sym), p if sign > 0 else -p)
        return out

    def act(self, a: AElem, vec: Dict[Slot, Poly]) -> Dict[Slot, Poly]:
        """Module action of a ring element on a slot vector."""
        A = self.A
        out: Dict[Slot, Poly] = {}
        for (j, b), p in vec.items():
            if p.is_zero():
                continue
            gj = self.gens[j]
            for c, q in a.coeffs.items():
                hit = A.mul_basis(c, b)
                if hit is None:
                    continue
                sym, sign = hit
                if gj.kind == "h0" and sym != A.unit:
                    continue
                if (gj.sigma * A.cohdeg[c]) % 2:
                    sign = -sign
                term = q * p
                if sign < 0:
                    term = -term
                slot = (j, sym)
                if slot in out:
                    out[slot] = out[slot] + term
                else:
                    out[slot] = term
        return {s: p for s, p in out.items() if not p.is_zero()}

    # -- underlying presented complex --------------------------------------

    def underlying(self) -> PresentedComplex:
        if self._underlying is not None:
            return self._underlying
        R = self.A.base
        table = self.slots_by_degree()
        covers: Dict[int, GradedFreeModule] = {}
        rels: Dict[int, GradedMatrix] = {}
        for c, lst in table.items():
            covers[c] = GradedFreeModule(
                R, [self.slot_twist(j, sym) for (j, sym) in lst]
            )
            rels[c] = GradedMatrix.block_diagonal(
                covers[c], [self._slot_relation_block(j, sym) for (j, sym) in lst]
            )
        diffs: Dict[int, GradedMatrix] = {}
        for c, lst in sorted(table.items()):
            tgt_list = table.get(c + 1)
            if not tgt_list:
                continue
            tgt = covers[c + 1]
            rows = [[R.zero()] * len(lst) for _ in tgt_list]
            pos = {s: t for t, s in enumerate(tgt_list)}
            for col, (j, b) in enumerate(lst):
                for slot, p in self.expand_slot_d(j, b).items():
                    r = pos.get(slot)
                    if r is None:
                        if not p.is_zero():
                            raise AssertionError(
                                "differential leaves the slot table"
                            )
                        continue
                    rows[r][col] = rows[r][col] + p
            diffs[c] = GradedMatrix(tgt, covers[c], rows)
        self._underlying = PresentedComplex(
            R, covers, diffs, rels, known_lo=self.known_lo
        )
        return self._underlying

    # -- cohomology ---------------------------------------------------------

    def cohomology(self, i: int) -> CohomologyData:
        return self.underlying().cohomology(i)

    def cohomology_support(
        self, lo: Optional[int] = None, hi: Optional[int] = None
    ) -> List[int]:
        """Cohomological degrees with nonzero H, inside the certified range."""
        s = self.support()
        if not s:
            return []
        a = s[0] - 1 if lo is None else lo
        b = s[-1] + 1 if hi is None else hi
        if self.known_lo is not None:
            a = max(a, self.known_lo + 1)
        out = []
        for i in range(a, b + 1):
            if not self.cohomology(i).is_zero():
                out.append(i)
        return out

    def sup_h(self) -> Optional[int]:
        degs = self.cohomology_support()
        return degs[-1] if degs else None

    def inf_h(self) -> Optional[int]:
        degs = self.cohomology_support()
        return degs[0] if degs else None

    def amp_h(self) -> Optional[int]:
        degs = self.cohomology_support()
        return degs[-1] - degs[0] if degs else None

    def is_acyclic(self) -> bool:
        return not self.cohomology_support()

    def __repr__(self):
        name = self.label or "DGModule"
        return "%s(%s)" % (name, list(self.gens))


# ---------- constructors ----------


def free_dg_module(
    A: DGRing, placements: Sequence[Tuple[int, int]], label: str = ""
) -> DGModule:
    """Free DG-module with one generator per (cohdeg, twist) pair."""
    gens = [DGGen(c, t, "free") for (c, t) in placements]
    return DGModule(A, gens, {}, check=False, label=label)


def h0_cyclic_dg_module(
    A: DGRing, rels: Sequence[Poly] = (), twist: int = 0, label: str = ""
) -> DGModule:
    """Cyclic H^0(A)-module, restricted to A along the augmentation."""
    gens = [DGGen(0, twist, "h0", rels=tuple(rels))]
    return DGModule(A, gens, {}, check=False, label=label)


def residue_dg_module(A: DGRing) -> DGModule:
    """The residue field H^0/(irrelevant ideal) as a DG-module."""
    return h0_cyclic_dg_module(
        A, rels=[v for v in A.base.variables()], label="k"
    )


def dg_module_from_h0_module(
    A: DGRing, M: GradedModule, cutoff: int = 8
) -> DGModule:
    """An H^0(A)-module, encoded by a free H^0-resolution with h0-kind
    generators (truncation window kept when the resolution does not stop)."""
    from ..complexes import minimal_free_resolution_module

    h0 = A.h0_ring()
    if M.ring.key() != h0.key():
        raise ValueError("module must be defined over H^0 of the DG-ring")
    cert = minimal_free_resolution_module(M, cutoff)
    F = cert.complex
    gens: List[DGGen] = []
    index: Dict[Tuple[int, int], int] = {}
    for c in F.support():
        for t, tw in enumerate(F.component(c).degrees):
            index[(c, t)] = len(gens)
            gens.append(DGGen(c, tw, "h0"))
    diff: Dict[int, Dict[int, AElem]] = {}
    for c, d in F.differentials.items():
        for sj in range(d.source.rank):
            row: Dict[int, AElem] = {}
            for ti in range(d.target.rank):
                e = d.entries[ti][sj]
                if e.is_zero():
                    continue
                row[index[(c + 1, ti)]] = A.from_base(e)
            if row:
                diff[index[(c, sj)]] = row
    return DGModule(
        A, gens, diff, known_lo=F.known_lo, check=False, label="h0-module"
    )


def shift_dg(M: DGModule, n: int) -> DGModule:
    """M[n]: component i becomes M^{i+n}; differential and action signs are
    absorbed into the generator data."""
    if n == 0:
        return M
    gens = [g.shifted(n) for g in M.gens]
    sign = -1 if n % 2 else 1
    diff = {
        j: {i: a.scale_int(sign) for i, a in row.items()}
        for j, row in M.diff.items()
    }
    return DGModule(
        M.A,
        gens,
        diff,
        known_lo=None if M.known_lo is None else M.known_lo - n,
        check=False,
        label=M.label,
    )


def twist_dg(M: DGModule, t: int) -> DGModule:
    gens = [DGGen(g.cohdeg, g.twist - t, g.kind, g.rels, g.sigma) for g in M.gens]
    return DGModule(M.A, gens, M.diff, known_lo=M.known_lo, check=False, label=M.label)


# ---------- maps and cones ----------


class DGMap:
    """Degree-zero map of DG-modules, generator-to-generator coefficients in
    the same raw-expansion convention as differentials."""

    def __init__(
        self,
        source: DGModule,
        target: DGModule,
        entries: Dict[int, Dict[int, AElem]],
        check: bool = True,
    ):
        self.source = source
        self.target = target
        clean: Dict[int, Dict[int, AElem]] = {}
        for j, row in entries.items():
            kept = {i: a for i, a in row.items() if a and not a.is_zero()}
            if kept:
                clean[j] = kept
        self.entries = clean
        if check:
            self.validate()

    def underlying_component(self, c: int) -> GradedMatrix:
        """Slot matrix of the map on cohomological degree c."""
        src = self.source
        tgt = self.target
        R = src.A.base
        src_list = src.slots_by_degree().get(c, [])
        tgt_list = tgt.slots_by_degree().get(c, [])
        src_cover = src.underlying().cover(c)
        tgt_cover = tgt.underlying().cover(c)
        rows = [[R.zero()] * len(src_list) for _ in tgt_list]
        pos = {s: t for t, s in enumerate(tgt_list)}
        A = src.A
        for col, (j, b) in enumerate(src_list):
            row_entries = self.entries.get(j)
            if not row_entries:
                continue
            gj = src.gens[j]
            b_elem = AElem(A, {b: A.base.one()})
            bdeg = A.cohdeg[b]
            for i, beta in row_entries.items():
                gi = tgt.gens[i]
                sign = -1 if ((gj.sigma + gi.sigma) * bdeg) % 2 else 1
                prod = b_elem.mul(beta)
                for sym, p in prod.coeffs.items():
                    if gi.kind == "h0" and sym != A.unit:
                        continue
                    r = pos.get((i, sym))
                    if r is None:
                        if not p.is_zero():
                            raise AssertionError("map leaves the slot table")
                        continue
                    term = p if sign > 0 else -p
                    rows[r][col] = rows[r][col] + term
        return GradedMatrix(tgt_cover, src_cover, rows)

    def validate(self) -> None:
        src, tgt = self.source, self.target
        A = src.A
        if tgt.A != A:
            raise ValueError("map across different DG-rings")
        for j, row in self.entries.items():
            gj = src.gens[j]
            for i, beta in row.items():
                gi = tgt.gens[i]
                want_coh = gj.cohdeg - gi.cohdeg
                want_tw = gj.twist - gi.twist
                for sym, p in beta.coeffs.items():
                    if A.cohdeg[sym] != want_coh:
                        raise ValueError("map entry %d<-%d off-degree" % (i, j))
                    d = p.degree()
                    if d is not None and d != want_tw - A.twist[sym]:
                        raise ValueError("map entry %d<-%d off-twist" % (i, j))
        # commuting with differentials, modulo target relations
        for c in src.support():
            f_c = self.underlying_component(c)
            f_c1 = self.underlying_component(c + 1)
            lhs = tgt.underlying().diff(c).compose(f_c)
            rhs = f_c1.compose(src.underlying().diff(c))
            delta = lhs.add(rhs.negate())
            q = tgt.underlying().rel(c + 1)
            for jcol in range(delta.source.rank):
                col = delta.column(jcol)
                if all(p.is_zero() for p in col):
                    continue
                if q is None or not syzygy_engine(q).contains(col):
                    raise ValueError(
                        "map does not commute with differentials at %d" % c
                    )


def cone_dg(f: DGMap, check: bool = True) -> DGModule:
    """cone(f: X -> Y) = Y + X[1] with the glue column given by f."""
    X, Y = f.source, f.target
    A = Y.A
    ny = len(Y.gens)
    gens = list(Y.gens) + [g.shifted(1) for g in X.gens]
    diff: Dict[int, Dict[int, AElem]] = {}
    for j, row in Y.diff.items():
        diff[j] = dict(row)
    for j, row in X.diff.items():
        diff[ny + j] = {ny + i: a.scale_int(-1) for i, a in row.items()}
    for j, row in f.entries.items():
        tgt_row = diff.setdefault(ny + j, {})
        for i, beta in row.items():
            if i in tgt_row:
                tgt_row[i] = tgt_row[i].add(beta)
            else:
                tgt_row[i] = beta
    lo = None
    cands = [
        v
        for v in (Y.known_lo, None if X.known_lo is None else X.known_lo - 1)
        if v is not None
    ]
    if cands:
        lo = max(cands)
    return DGModule(A, gens, diff, known_lo=lo, check=check)


def cocone_dg(f: DGMap, check: bool = True) -> DGModule:
    return shift_dg(cone_dg(f, check=check), -1)


# ---------- Hom from a semifree module ----------


def hom_semifree_into_dg(SF: DGModule, M: DGModule) -> PresentedComplex:
    """Hom_A(SF, M) as a presented complex over the base ring; SF must have
    free generators only.  Component n holds the maps of degree n, slots
    indexed by (SF generator, M slot)."""
    A = SF.A
    if M.A != A:
        raise ValueError("modules over different DG-rings")
    for g in SF.gens:
        if g.kind != "free":
            raise ValueError("source must be semifree (free generators)")
    R = A.base
    m_slots = M.slots_by_degree()
    sf_gens = list(enumerate(SF.gens))
    # Hom-slot inventory: (sf gen j, m slot (i, sym)) at degree mdeg - c_j
    covers: Dict[int, GradedFreeModule] = {}
    rels: Dict[int, GradedMatrix] = {}
    table: Dict[int, List[Tuple[int, Slot]]] = {}
    for j, gj in sf_gens:
        for mdeg, lst in m_slots.items():
            n = mdeg - gj.cohdeg
            for s in lst:
                table.setdefault(n, []).append((j, s))
    for n, lst in table.items():
        lst.sort(key=lambda e: (e[0], M.slot_position(e[1])[1]))
        covers[n] = GradedFreeModule(
            R,
            [
                M.slot_twist(s[0], s[1]) - SF.gens[j].twist
                for (j, s) in lst
            ],
        )
        rels[n] = GradedMatrix.block_diagonal(
            covers[n],
            [M._slot_relation_block(*s).twist(SF.gens[j].twist) for (j, s) in lst],
        )
    pos: Dict[int, Dict[Tuple[int, Slot], int]] = {
        n: {e: t for t, e in enumerate(lst)} for n, lst in table.items()
    }
    diffs: Dict[int, GradedMatrix] = {}
    for n in sorted(table):
        if (n + 1) not in table:
            continue
        src_list = table[n]
        tgt = covers[n + 1]
        rows = [[R.zero()] * len(src_list) for _ in range(tgt.rank)]

        def put(r: Optional[int], c: int, p: Poly):
            if r is None or p.is_zero():
                return
            rows[r][c] = rows[r][c] + p

        for col, (j, s) in enumerate(src_list):
            # d_M applied to the value slot
            mdeg = M.slot_cohdeg(s[0], s[1])
            m_src = m_slots.get(mdeg, [])
            m_tgt = m_slots.get(mdeg + 1, [])
            if m_tgt:
                dcol = M.expand_slot_d(s[0], s[1])
                for slot2, p in dcol.items():
                    put(pos[n + 1].get((j, slot2)), col, p)
            # minus (-1)^n phi o d_SF: alpha entries into generator j
            sgn_outer = 1 if n % 2 else -1  # -(-1)^n
            for j2, row2 in SF.diff.items():
                beta = row2.get(j)
                if beta is None:
                    continue
                gj2 = SF.gens[j2]
                for b, coef in beta.coeffs.items():
                    bdeg = A.cohdeg[b]
                    sgn = sgn_outer
                    if ((SF.gens[j].sigma + n) * bdeg) % 2:
                        sgn = -sgn
                    acted = M.act(
                        AElem(A, {b: coef}), {s: R.one()}
                    )
                    for slot2, p in acted.items():
                        put(
                            pos[n + 1].get((j2, slot2)),
                            col,
                            p if sgn > 0 else -p,
                        )
        diffs[n] = GradedMatrix(tgt, covers[n], rows)
    # window: a truncated SF corrupts high Hom degrees, a truncated M low ones
    hi = None
    if SF.known_lo is not None and m_slots:
        hi = min(m_slots) - SF.known_lo
    lo = None
    if M.known_lo is not None and SF.support():
        lo = M.known_lo - SF.min_slot_cohdeg()
    return PresentedComplex(R, covers, diffs, rels, known_lo=lo, known_hi=hi)


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
    los = [x for x in (M.known_lo, N.known_lo) if x is not None]
    lo = max(los) if los else None
    return DGModule(M.A, gens, diff, known_lo=lo, check=False)


def multiplication_map(M: DGModule, a: Poly) -> DGMap:
    """Multiplication by a base-ring element a, as a map M(-|a|) -> M.

    a sits in cohomological degree zero and is central, so the diagonal
    coefficients commute with the differential on the nose; the source is
    twisted to make every entry homogeneous."""
    A = M.A
    deg = 0 if a.is_zero() else a.degree()
    src = twist_dg(M, -deg)
    entries: Dict[int, Dict[int, AElem]] = {}
    if not a.is_zero():
        for j in range(len(M.gens)):
            entries[j] = {j: A.from_base(a)}
    return DGMap(src, M, entries, check=False)


def koszul_dg_module(A: DGRing, elements: Sequence, check: bool = True) -> DGModule:
    """Iterated mapping cone over multiplication by the given elements.

    With no elements this is the free module of rank one; each further
    element a replaces M by cone(M(-|a|) --a--> M), the same as tensoring
    with the two-term complex A --a--> A.  Zero entries are allowed and
    contribute a split shifted copy."""
    M = free_dg_module(A, [(0, 0)])
    for a in elements:
        p = a if isinstance(a, Poly) else A.base.parse(str(a))
        p = A.base.normal_form(p)
        M = cone_dg(multiplication_map(M, p), check=check)
    return M
