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
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.poly import Poly
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
        label: str = "",
    ):
        self.base = base
        self.kind = kind
        self.basis = tuple(basis)
        self.cohdeg = dict(cohdeg)
        self.twist = dict(twist)
        self.mul_table = dict(mul_table)
        self.d_table = {s: dict(v) for s, v in d_table.items()}
        self.slot_extra = {s: tuple(slot_extra.get(s, ())) for s in basis}
        self.h0_extra = tuple(h0_extra)
        self.label = label or kind
        self.unit = "1"
        if self.unit not in self.basis:
            raise ValueError("basis must contain the unit symbol '1'")
        self._slot_rings: Dict[str, GradedRing] = {}
        self._h0: Optional[GradedRing] = None

    # -- structure ---------------------------------------------------------

    @property
    def is_product(self) -> bool:
        return False

    def slot_ring(self, sym: str) -> GradedRing:
        r = self._slot_rings.get(sym)
        if r is None:
            extra = self.slot_extra.get(sym, ())
            r = self.base.quotient(extra) if extra else self.base
            self._slot_rings[sym] = r
        return r

    def h0_ring(self) -> GradedRing:
        if self._h0 is None:
            self._h0 = (
                self.base.quotient(self.h0_extra) if self.h0_extra else self.base
            )
        return self._h0

    def dimension(self) -> int:
        """Krull dimension of H^0."""
        return self.h0_ring().dimension()

    def zero_elem(self) -> "AElem":
        return AElem(self, {})

    def unit_elem(self) -> "AElem":
        return AElem(self, {self.unit: self.base.one()})

    def from_base(self, p: Poly) -> "AElem":
        return AElem(self, {self.unit: p})

    def elem(self, coeffs: Dict[str, Poly]) -> "AElem":
        return AElem(self, coeffs)

    def basis_cohdeg(self, sym: str) -> int:
        return self.cohdeg[sym]

    def basis_twist(self, sym: str) -> int:
        return self.twist[sym]

    def mul_basis(self, a: str, b: str) -> Optional[Tuple[str, int]]:
        return self.mul_table.get((a, b))

    def d_basis(self, sym: str) -> Dict[str, Poly]:
        return self.d_table.get(sym, {})

    def min_cohdeg(self) -> int:
        return min(self.cohdeg[s] for s in self.basis)

    def key(self):
        return (
            self.kind,
            self.base.key(),
            self.basis,
            tuple(sorted((s, d) for s, d in self.cohdeg.items())),
            tuple(
                (s, tuple(str(p) for p in ex))
                for s, ex in sorted(self.slot_extra.items())
            ),
            tuple(str(p) for p in self.h0_extra),
        )

    def __eq__(self, other):
        return isinstance(other, DGRing) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "DGRing(%s over %r)" % (self.label, self.base)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "base": self.base.to_json(),
            "basis": [
                {
                    "symbol": s,
                    "cohdeg": self.cohdeg[s],
                    "twist": self.twist[s],
                    "slot_relations": [str(p) for p in self.slot_extra.get(s, ())],
                }
                for s in self.basis
            ],
            "h0_relations": [str(p) for p in self.h0_extra],
        }

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
                    if (x.mul(y)).mul(z) != x.mul(y.mul(z)):
                        raise AssertionError(
                            "associativity fails on %s,%s,%s" % (a, b, c)
                        )
        for a in self.basis:
            for b in self.basis:
                x = AElem(self, {a: one})
                y = AElem(self, {b: one})
                lhs = x.mul(y).d()
                sign = -1 if self.cohdeg[a] % 2 else 1
                rhs = x.d().mul(y).add(x.mul(y.d()).scale_int(sign))
                if lhs != rhs:
                    raise AssertionError("Leibniz fails on %s,%s" % (a, b))
        for a in self.basis:
            x = AElem(self, {a: one})
            if not x.d().d().is_zero():
                raise AssertionError("d^2 != 0 on %s" % a)


class AElem:
    """Homogeneous-or-not element of a DGRing: basis symbol -> coefficient."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: DGRing, coeffs: Dict[str, Poly]):
        self.ring = ring
        clean: Dict[str, Poly] = {}
        for sym, p in coeffs.items():
            q = ring.slot_ring(sym).normal_form(p)
            if q:
                clean[sym] = q
        self.coeffs = clean

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
        return AElem(self.ring, out)

    def negate(self) -> "AElem":
        return AElem(self.ring, {s: -p for s, p in self.coeffs.items()})

    def scale_int(self, n: int) -> "AElem":
        if n == 1:
            return self
        if n == -1:
            return self.negate()
        c = self.ring.base.field.from_int(n)
        return AElem(self.ring, {s: p.scale(c) for s, p in self.coeffs.items()})

    def scale_poly(self, q: Poly) -> "AElem":
        return AElem(self.ring, {s: p * q for s, p in self.coeffs.items()})

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

    def homogeneous_cohdeg(self) -> Optional[int]:
        degs = {self.ring.cohdeg[s] for s in self.coeffs}
        if len(degs) == 1:
            return degs.pop()
        return None

    def key(self):
        return tuple(sorted((s, str(p)) for s, p in self.coeffs.items()))

    def __eq__(self, other):
        return (
            isinstance(other, AElem)
            and self.ring == other.ring
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

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
        label="base",
    )


def _subset_symbol(S: Tuple[int, ...]) -> str:
    if not S:
        return "1"
    return "e{%s}" % ",".join(str(i) for i in S)


def build_koszul_dg(base: GradedRing, elements: Sequence[Poly]) -> DGRing:
    """Koszul complex K(base; a_1..a_l) as a DG-ring.

    Each a_i must be homogeneous of positive degree (so H^0 is again a
    connected graded quotient).
    """
    polys = [base.parse(p) if isinstance(p, str) else p for p in elements]
    elems = [base.normal_form(p) for p in polys]
    for p in elems:
        if p.is_zero():
            continue
        if p.degree() is None or p.degree() <= 0:
            raise ValueError("Koszul elements must be homogeneous of positive degree")
    l = len(elems)
    subsets: List[Tuple[int, ...]] = []
    for mask in range(1 << l):
        S = tuple(i for i in range(l) if mask >> i & 1)
        subsets.append(S)
    subsets.sort(key=lambda S: (len(S), S))
    basis = [_subset_symbol(S) for S in subsets]
    by_sym = {_subset_symbol(S): S for S in subsets}
    cohdeg = {_subset_symbol(S): -len(S) for S in subsets}
    twist = {
        _subset_symbol(S): sum(elems[i].degree() or 0 for i in S) for S in subsets
    }
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
        label="K(%s)" % ", ".join(str(p) for p in elems),
    )


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
        label="R(+)C[%d]" % shift,
    )


# ---------- products ----------


class ProductDGRing:
    """Finite product of DG-rings, componentwise everything.

    H^0 is the product of the factor H^0's; dimensions and amplitudes are
    maxima over factors.
    """

    def __init__(self, factors: Sequence[DGRing]):
        if not factors:
            raise ValueError("empty product")
        self.factors = tuple(factors)
        self.label = " x ".join(f.label for f in self.factors)

    @property
    def is_product(self) -> bool:
        return True

    def dimension(self) -> int:
        return max(f.dimension() for f in self.factors)

    def key(self):
        return tuple(f.key() for f in self.factors)

    def __eq__(self, other):
        return isinstance(other, ProductDGRing) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "ProductDGRing(%s)" % (self.label,)

    def to_json(self) -> dict:
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


def product_dg(factors: Sequence[DGRing]) -> ProductDGRing:
    return ProductDGRing(factors)
