"""Non-positive commutative DG-rings with finite free-ish basis over a
graded base ring.

Three kinds are supported:

* "ring": the base ring itself, one basis element ``1`` in degree 0 and
  zero differential;
* "koszul": the Koszul complex on homogeneous elements a_1..a_l of the
  base, exterior basis e_S indexed by subsets, d(e_i) = a_i;
* "trivial-extension": R with a square-zero cyclic summand (R/I)eps placed
  in cohomological degree -n, zero differential.

Cohomological degrees are <= 0 throughout.  Every basis slot carries a
coefficient ring (a quotient of the base): the eps-slot of a trivial
extension is R/I, everything else is R itself.  Elements (AElem) are maps
basis symbol -> polynomial, the polynomial kept in normal form of the
slot's ring.

Only products and outside input are normalized: AElem(...) itself, mul and
d, whose coefficient products can leave the normal forms.  A k-linear
combination of normal forms is a normal form (no term of either lies in
the leading-term ideal, so no term of the sum does), so add and negate
combine the stored coefficients directly and only drop those that cancel
to zero.  A normal form in a slot's quotient ring is also one in the base
ring, whose leading-term ideal the quotient's contains.  The d_table is
normalized into the target slots once, when the ring is built.

DG-rings, like their base rings, are immutable once built; the derived
invariants memoized on a DGRing (its amplitude, sequential depth and
Gorenstein test, the resolutions of its residue field, the DG-ring of its
H^0, the normal forms of its modules' slot relations, its regular-element
model) rely on that.

The regular-element model.  Let f be regular on the base R.  Then
K(R; f) -> R/(f) is a quasi-isomorphism of DG-rings, and tensoring it with
the bounded free complex K(R; g_1..g_m) keeps it one, so

    K(R; f, g_1..g_m) -> K(R/(f); g_1..g_m)

is a quasi-isomorphism (Bruns-Herzog, Cohen-Macaulay Rings, 1.6).  It
sends an exterior symbol that avoids f to the model's symbol on the same
elements, with sign +, and every other symbol to zero.  A quasi-isomorphism
of DG-rings induces an equivalence of derived categories that keeps the
cohomology and its internal grading, so every derived invariant (proj, flat
and injective dimension, amplitude, sequential depth, the FPD interval) can
be computed on the model, which has half the exterior basis.  Over a
polynomial base every nonzero element is regular, so the model eliminates
the first nonzero element there; over a quotient base no element is
eliminated, since that needs a regularity test.

The model's base is R/(f) up to a graded ring isomorphism, and the model
carries the ring map sigma: R -> base as its base_map.  When f = c x_i + h
with c a nonzero scalar and h free of x_i, the base is the polynomial ring
k[x_j : j != i] and sigma substitutes -h/c for x_i: it is onto, and its
kernel is (f), so it induces R/(f) = k[x_j : j != i], graded because f is
homogeneous.  Every model base built from such an f is a polynomial ring,
so no product on the model is reduced.  Any other f keeps the quotient
R/(f) as the base, and sigma is its normal form.  sigma is applied by
_koszul_model to the remaining Koszul elements and by DGModule.over_model
to what a module carries over.  Each element keeps the internal degree it
has on A, also when sigma sends it to zero (x y goes to 0 modulo x and
keeps twist 2).  A model is never modeled again.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.poly import Poly, PolyRing
from ..core.ring import GradedRing


class DGRing:
    """Finitely based non-positive DG-ring over a graded quotient ring."""

    def __init__(
        self,
        base: GradedRing,
        kind: str,
        basis: Sequence[str],
        cohdeg: Dict[str, int],
        twist: Dict[str, int],
        mul_table: Dict[Tuple[str, str], Tuple[str, int]],
        d_table: Dict[str, Dict[str, Poly]],
        slot_extra: Dict[str, Tuple[Poly, ...]],
        h0_extra: Sequence[Poly],
    ):
        self.base = base
        self.kind = kind
        self.basis = tuple(basis)
        self.cohdeg = dict(cohdeg)
        self.twist = dict(twist)
        self.mul_table = dict(mul_table)
        self.slot_extra = {s: tuple(slot_extra.get(s, ())) for s in basis}
        self.h0_extra = tuple(h0_extra)
        self.unit = "1"
        if self.unit not in self.basis:
            raise ValueError("basis must contain the unit symbol '1'")
        self._slot_rings: Dict[str, GradedRing] = {}
        self._h0: Optional[GradedRing] = None
        self.d_table = {s: AElem(self, v).coeffs for s, v in d_table.items()}
        # memos of dimensions.py: ring_amplitude(A), sequential_depth(A),
        # is_gorenstein(A), and the residue-field resolution of bass_numbers
        # by window floor; of finitistic.py: the DG-ring of H^0(A); of
        # corpus.py: homogeneous_pool(A); of regular_model: (model, symbol
        # map), False when there is none
        self._amplitude = None
        self._depth = None
        self._gorenstein = None
        self._residue_resolutions: dict = {}
        self._h0_dg: Optional["DGRing"] = None
        self._pool: Optional[List[Poly]] = None
        self._model = None
        # sigma of the regular-element model: set on a model only
        self.base_map: Optional[Callable[[Poly], Poly]] = None
        # memo of dgmodule.py: the nonzero normal forms of the relations of
        # a free slot (by symbol) and of an h0 slot (by generator relations),
        # each with its degree
        self._normal_slot_relations: Dict[object, Tuple[Tuple[Poly, int], ...]] = {}

    # -- structure ---------------------------------------------------------

    def slot_ring(self, sym: str) -> GradedRing:
        r = self._slot_rings.get(sym)
        if r is None:
            r = self.base.quotient(self.slot_extra.get(sym, ()))
            self._slot_rings[sym] = r
        return r

    def h0_ring(self) -> GradedRing:
        if self._h0 is None:
            self._h0 = self.base.quotient(self.h0_extra)
        return self._h0

    def dimension(self) -> int:
        """Krull dimension of H^0."""
        return self.h0_ring().dimension()

    def from_base(self, p: Poly) -> "AElem":
        return AElem(self, {self.unit: p})

    def regular_model(self) -> Optional[Tuple["DGRing", Dict[str, str]]]:
        """(A', phi) for a Koszul DG-ring over a polynomial base with a
        nonzero element: A' eliminates the first nonzero element and
        carries sigma as its base_map (see the module docstring), and phi
        maps each symbol of A that survives to its symbol of A' (the others
        go to zero).  None for every other DG-ring, a model included, at the
        cost of one comparison when A is not Koszul.  Built once and
        memoized on A."""
        if self.kind != "koszul" or self.base_map is not None:
            return None
        if self._model is None:
            self._model = _koszul_model(self) or False
        return self._model or None

    def mul_basis(self, a: str, b: str) -> Optional[Tuple[str, int]]:
        return self.mul_table.get((a, b))

    def d_basis(self, sym: str) -> Dict[str, Poly]:
        return self.d_table.get(sym, {})

    def __repr__(self):
        return "DGRing(%s %s over %r)" % (self.kind, list(self.basis), self.base)

    # -- axioms (exercised by the test-suite, not on every construction) ----

    def check_axioms(self) -> None:
        R = self.base
        one = R.one()
        for s in self.basis:
            got = self.mul_basis(self.unit, s)
            if got != (s, 1) or self.mul_basis(s, self.unit) != (s, 1):
                raise AssertionError("unit law fails on %s" % s)
        # graded commutativity with Koszul sign, associativity, Leibniz
        for a in self.basis:
            for b in self.basis:
                ab = self.mul_basis(a, b)
                ba = self.mul_basis(b, a)
                sign = -1 if (self.cohdeg[a] % 2) and (self.cohdeg[b] % 2) else 1
                if ab is None:
                    if ba is not None:
                        raise AssertionError("commutativity fails on %s,%s" % (a, b))
                else:
                    if ba is None or ba[0] != ab[0] or ba[1] != sign * ab[1]:
                        raise AssertionError("commutativity fails on %s,%s" % (a, b))
                if (self.cohdeg[a] % 2) and a == b and ab is not None:
                    raise AssertionError("odd square nonzero on %s" % a)
        for a in self.basis:
            for b in self.basis:
                for c in self.basis:
                    x = AElem(self, {a: one})
                    y = AElem(self, {b: one})
                    z = AElem(self, {c: one})
                    if (x.mul(y)).mul(z).coeffs != x.mul(y.mul(z)).coeffs:
                        raise AssertionError(
                            "associativity fails on %s,%s,%s" % (a, b, c)
                        )
        for a in self.basis:
            for b in self.basis:
                x = AElem(self, {a: one})
                y = AElem(self, {b: one})
                lhs = x.mul(y).d()
                odd = self.cohdeg[a] % 2
                second = x.mul(y.d())
                rhs = x.d().mul(y).add(second.negate() if odd else second)
                if lhs.coeffs != rhs.coeffs:
                    raise AssertionError("Leibniz fails on %s,%s" % (a, b))
        for a in self.basis:
            x = AElem(self, {a: one})
            if not x.d().d().is_zero():
                raise AssertionError("d^2 != 0 on %s" % a)


class AElem:
    """Homogeneous-or-not element of a DGRing: basis symbol -> coefficient."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: DGRing, coeffs: Dict[str, Poly]):
        """The element with these coefficients, each normalized in its
        slot's ring."""
        self.ring = ring
        clean: Dict[str, Poly] = {}
        for sym, p in coeffs.items():
            q = ring.slot_ring(sym).normal_form(p)
            if q:
                clean[sym] = q
        self.coeffs = clean

    @classmethod
    def _normal(cls, ring: DGRing, coeffs: Dict[str, Poly]) -> "AElem":
        """The element with these coefficients, already normal forms of
        their slots' rings: only the zeros are dropped."""
        out = cls.__new__(cls)
        out.ring = ring
        out.coeffs = {sym: p for sym, p in coeffs.items() if p}
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def get(self, sym: str) -> Poly:
        p = self.coeffs.get(sym)
        return p if p is not None else self.ring.base.zero()

    def unit_part(self) -> Poly:
        return self.get(self.ring.unit)

    def add(self, other: "AElem") -> "AElem":
        out = dict(self.coeffs)
        for sym, p in other.coeffs.items():
            if sym in out:
                out[sym] = out[sym] + p
            else:
                out[sym] = p
        return AElem._normal(self.ring, out)

    def negate(self) -> "AElem":
        return AElem._normal(self.ring, {s: -p for s, p in self.coeffs.items()})

    def mul(self, other: "AElem") -> "AElem":
        A = self.ring
        acc: Dict[str, Poly] = {}
        for sa, pa in self.coeffs.items():
            for sb, pb in other.coeffs.items():
                hit = A.mul_basis(sa, sb)
                if hit is None:
                    continue
                sym, sign = hit
                term = pa * pb
                if sign < 0:
                    term = -term
                if sym in acc:
                    acc[sym] = acc[sym] + term
                else:
                    acc[sym] = term
        return AElem(A, acc)

    def d(self) -> "AElem":
        """Differential; coefficients sit in degree 0, so no Koszul sign."""
        A = self.ring
        acc: Dict[str, Poly] = {}
        for sym, p in self.coeffs.items():
            for tgt, coef in A.d_basis(sym).items():
                term = p * coef
                if tgt in acc:
                    acc[tgt] = acc[tgt] + term
                else:
                    acc[tgt] = term
        return AElem(A, acc)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for s in self.ring.basis:
            p = self.coeffs.get(s)
            if p is None:
                continue
            bits.append("(%s)*%s" % (p, s) if s != "1" else "(%s)" % p)
        return " + ".join(bits)


# ---------- builders ----------


def build_ring_dg(base: GradedRing) -> DGRing:
    return DGRing(
        base,
        "ring",
        ["1"],
        {"1": 0},
        {"1": 0},
        {("1", "1"): ("1", 1)},
        {},
        {},
        [],
    )


def _subset_symbol(S: Tuple[int, ...]) -> str:
    if not S:
        return "1"
    return "e{%s}" % ",".join(str(i) for i in S)


def build_koszul_dg(base: GradedRing, elements: Sequence) -> DGRing:
    """Koszul complex K(base; a_1..a_l) as a DG-ring.

    Each a_i must be homogeneous of positive degree (so H^0 is again a
    connected graded quotient).  Its internal degree is read off it as
    given, a string parsed in the ambient polynomial ring, before it is
    reduced into the base: an element that reduces to zero keeps its
    degree, and only a literal 0 gets twist 0.
    """
    given = [base.ambient.parse(p) if isinstance(p, str) else p for p in elements]
    return _koszul(
        base, [base.normal_form(p) for p in given], [p.degree() or 0 for p in given]
    )


def _koszul(base: GradedRing, elems: Sequence[Poly], degs: Sequence[int]) -> DGRing:
    """K(base; elems), the elements normal forms of the base and degs their
    internal degrees."""
    for p, d in zip(elems, degs):
        if p and d <= 0:
            raise ValueError("Koszul elements must be homogeneous of positive degree")
    l = len(elems)
    subsets: List[Tuple[int, ...]] = []
    for mask in range(1 << l):
        S = tuple(i for i in range(l) if mask >> i & 1)
        subsets.append(S)
    subsets.sort(key=lambda S: (len(S), S))
    basis = [_subset_symbol(S) for S in subsets]
    cohdeg = {_subset_symbol(S): -len(S) for S in subsets}
    twist = {_subset_symbol(S): sum(degs[i] for i in S) for S in subsets}
    mul_table: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for S in subsets:
        for T in subsets:
            if set(S) & set(T):
                continue
            sign = 1
            for s in S:
                for t in T:
                    if s > t:
                        sign = -sign
            U = tuple(sorted(S + T))
            mul_table[(_subset_symbol(S), _subset_symbol(T))] = (
                _subset_symbol(U),
                sign,
            )
    d_table: Dict[str, Dict[str, Poly]] = {}
    for S in subsets:
        if not S:
            continue
        row: Dict[str, Poly] = {}
        for pos, i in enumerate(S):
            rest = tuple(x for x in S if x != i)
            coef = elems[i] if pos % 2 == 0 else -elems[i]
            if coef.is_zero():
                continue
            row[_subset_symbol(rest)] = coef
        d_table[_subset_symbol(S)] = row
    return DGRing(
        base,
        "koszul",
        basis,
        cohdeg,
        twist,
        mul_table,
        d_table,
        {},
        elems,
    )


def _koszul_model(A: DGRing) -> Optional[Tuple[DGRing, Dict[str, str]]]:
    """The model of A = K(R; .., f, g_1..g_m) over a polynomial ring R, f
    the first nonzero element, and the symbol map: K(B; sigma(g_1)..) with
    (B, sigma) = _eliminate(R, f), carrying sigma as its base_map.  Each
    sigma(g_i) keeps the twist g_i has on A, also when it is zero.  None
    over a quotient base or when every element is zero."""
    elems = A.h0_extra
    first = next((i for i, p in enumerate(elems) if p), None)
    if A.base.gb or first is None:
        return None
    rest = [i for i in range(len(elems)) if i != first]
    base, sigma = _eliminate(A.base, elems[first])
    model = _koszul(
        base,
        [sigma(elems[i]) for i in rest],
        [A.twist[_subset_symbol((i,))] for i in rest],
    )
    model.base_map = sigma
    phi: Dict[str, str] = {}
    for mask in range(1 << len(rest)):
        T = tuple(j for j in range(len(rest)) if mask >> j & 1)
        phi[_subset_symbol(tuple(rest[j] for j in T))] = _subset_symbol(T)
    return model, phi


def _eliminate(R: GradedRing, f: Poly) -> Tuple[GradedRing, Callable[[Poly], Poly]]:
    """(B, sigma) with sigma: R -> B onto and of kernel (f), for a nonzero
    homogeneous f of the polynomial ring R.  When f = c x_i + h, with c a
    nonzero scalar and h free of x_i (the first such i), B is the
    polynomial ring on the other variables and sigma substitutes -h/c for
    x_i; otherwise B = R/(f) and sigma is its normal form."""
    P = R.ambient
    for i in range(P.nvars):
        unit = tuple(int(j == i) for j in range(P.nvars))
        c = f.terms.get(unit)
        if c is not None and all(m == unit or not m[i] for m in f.terms):
            break
    else:
        B = R.quotient([f])
        return B, B.normal_form
    keep = [j for j in range(P.nvars) if j != i]
    Q = PolyRing(P.field, [P.names[j] for j in keep], [P.degrees[j] for j in keep])
    fld = P.field
    scale = fld.neg(fld.inv(c))
    powers = [Q.one(), Poly(Q, {
        tuple(m[j] for j in keep): fld.mul(scale, v)
        for m, v in f.terms.items() if m != unit
    })]

    def sigma(p: Poly) -> Poly:
        acc: dict = {}
        for m, v in p.terms.items():
            while len(powers) <= m[i]:
                powers.append(powers[-1] * powers[1])
            rest = tuple(m[j] for j in keep)
            for pm, pv in powers[m[i]].terms.items():
                mm = Q.mono_mul(rest, pm)
                cc = fld.mul(v, pv)
                acc[mm] = fld.add(acc[mm], cc) if mm in acc else cc
        return Poly(Q, {m: v for m, v in acc.items() if not fld.is_zero(v)})

    return GradedRing(Q, []), sigma


def build_trivial_extension(
    base: GradedRing,
    shift: int,
    c_relations: Sequence[Poly] = (),
    c_twist: int = 0,
) -> DGRing:
    """R with a square-zero summand (R/I)(-c_twist) in cohomological degree
    -shift, zero differential (shift >= 1)."""
    if shift < 1:
        raise ValueError("the square-zero summand must sit in negative degree")
    polys = [base.parse(p) if isinstance(p, str) else p for p in c_relations]
    rels = tuple(base.normal_form(p) for p in polys if base.normal_form(p))
    mul = {
        ("1", "1"): ("1", 1),
        ("1", "eps"): ("eps", 1),
        ("eps", "1"): ("eps", 1),
    }
    # eps*eps = 0: omitted from the table (even shift would need a square
    # otherwise, and the square is zero by fiat either way)
    return DGRing(
        base,
        "trivial-extension",
        ["1", "eps"],
        {"1": 0, "eps": -shift},
        {"1": 0, "eps": c_twist},
        mul,
        {},
        {"eps": rels},
        [],
    )

