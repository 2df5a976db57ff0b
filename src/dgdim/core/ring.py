"""Connected graded quotient rings R = k[x_1..x_n]/J with Groebner machinery.

J is generated by homogeneous polynomials; the reduced Groebner basis (graded
reverse lexicographic order) backs normal forms, Krull dimension via the
leading-term ideal, and monomial bases of graded pieces.  That basis is the
rank-one case of the module engine: syz.ModuleGB on the generators of J as
columns of P^1 at twist 0, interreduced.  The irrelevant
maximal ideal generated by the variables plays the role of the maximal ideal
of a local ring throughout.

A GradedRing is immutable once built: its basis, key and quotient rings are
computed at most once and kept on the ring.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .poly import Monomial, Poly, PolyRing
from .scalars import field_from_tag
from .syz import ModuleGB


def _reduce(p: Poly, lead: Sequence[tuple]) -> Poly:
    """Normal form of p modulo the g of lead, a list of ((lm, lc), g) pairs."""
    ring = p.ring
    f = ring.field
    remainder: dict = {}
    work = dict(p.terms)
    while work:
        m = max(work, key=ring.mono_key)
        c = work.pop(m)
        hit = None
        for (lm, lc), g in lead:
            if ring.mono_divides(lm, m):
                hit = (lm, lc, g)
                break
        if hit is None:
            remainder[m] = c
            continue
        lm, lc, g = hit
        factor_mono = ring.mono_div(m, lm)
        factor_coeff = f.div(c, lc)
        # work -= factor * g
        for gm, gc in g.terms.items():
            mm = ring.mono_mul(gm, factor_mono)
            cc = f.mul(gc, factor_coeff)
            if mm in work:
                s = f.sub(work[mm], cc)
                if f.is_zero(s):
                    del work[mm]
                else:
                    work[mm] = s
            elif mm == m:
                pass  # cancelled the pivot term
            else:
                work[mm] = f.neg(cc)
    return Poly(ring, remainder)


def groebner_basis(gens: Sequence[Poly]) -> List[Poly]:
    """Reduced Groebner basis of the ideal generated by gens: the rank-one
    case of ModuleGB, whose order at twist 0 is PolyRing.mono_key.  It
    reads only the basis vectors, so no column's history is tracked."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    ambient = gens[0].ring
    gbm = ModuleGB(ambient, [0], [{0: g} for g in gens], 0)
    return interreduce(
        [Poly(ambient, {m: c for (m, _), c in vec.items()}) for vec, _ in gbm.gb]
    )


def interreduce(basis: Sequence[Poly]) -> List[Poly]:
    """Minimal reduced monic basis, deterministically ordered."""
    polys = [g.monic() for g in basis if g]
    # drop elements whose leading term is divisible by another's
    polys.sort(key=lambda g: g.ring.mono_key(g.leading()[0]))
    kept: List[Poly] = []
    for idx, g in enumerate(polys):
        lm = g.leading()[0]
        ring = g.ring
        redundant = False
        for jdx, h in enumerate(polys):
            if jdx == idx:
                continue
            lh = h.leading()[0]
            if ring.mono_divides(lh, lm) and (
                lh != lm or jdx < idx
            ):
                redundant = True
                break
        if not redundant:
            kept.append(g)
    out: List[Poly] = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = _reduce(g, [(h.leading(), h) for h in others])
        if r:
            out.append(r.monic())
    out.sort(key=lambda g: g.ring.mono_key(g.leading()[0]))
    return out


class GradedRing:
    """Graded quotient k[x..]/J presented by a reduced Groebner basis.

    Immutable: the memos below (monomial bases, dimension, quotient rings)
    are only valid because nothing changes a ring after construction."""

    def __init__(self, ambient: PolyRing, relations: Sequence[Poly]):
        self.ambient = ambient
        for rel in relations:
            if not rel.is_homogeneous():
                raise ValueError("inhomogeneous relation: %s" % rel)
        self.relations = tuple(r for r in relations if r)
        self.gb = tuple(groebner_basis(list(self.relations)))
        one = ambient.mono_one()
        self.is_zero_ring = any(g.leading()[0] == one for g in self.gb)
        # (leading term, g) of every basis element, shared by all normal forms
        self._leads = tuple((g.leading(), g) for g in self.gb)
        self._lt = tuple(lm for (lm, _), _ in self._leads)
        self._mono_basis_cache: dict = {}
        self._dimension: Optional[int] = None
        self._key = (
            ambient.field.tag,
            ambient.names,
            ambient.degrees,
            tuple(str(g) for g in self.gb),
        )
        # quotient(extra) by the terms of the nonzero extras, in their order
        self._quotients: dict = {}

    # -- basic structure ---------------------------------------------------

    @property
    def field(self):
        return self.ambient.field

    def normal_form(self, p: Poly) -> Poly:
        if not self._leads or not p.terms:
            return p
        return _reduce(p, self._leads)

    def zero(self) -> Poly:
        return self.ambient.zero()

    def one(self) -> Poly:
        if self.is_zero_ring:
            return self.ambient.zero()
        return self.ambient.one()

    def parse(self, text: str) -> Poly:
        return self.normal_form(self.ambient.parse(text))

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.normal_form(a * b)

    def quotient(self, extra: Sequence[Poly]) -> "GradedRing":
        """R/(extra) over the same ambient ring, relations in the order given;
        R itself when no extra is nonzero.

        Memoized on this ring, keyed on the terms of the nonzero extras in
        their order: equal extras return the same ring object, so its own
        memos are shared by every caller."""
        extra = [p for p in extra if p]
        if not extra:
            return self
        key = tuple(p.terms_key() for p in extra)
        ring = self._quotients.get(key)
        if ring is None:
            ring = GradedRing(self.ambient, list(self.relations) + extra)
            self._quotients[key] = ring
        return ring

    def variables(self) -> List[Poly]:
        return [self.ambient.variable(n) for n in self.ambient.names]

    # -- monomial bases and Hilbert data ----------------------------------

    def standard_monomials(self, degree: int) -> List[Monomial]:
        """Monomials of weighted degree d not in the leading-term ideal."""
        if degree < 0 or self.is_zero_ring:
            return []
        cached = self._mono_basis_cache.get(degree)
        if cached is not None:
            return cached
        out: List[Monomial] = []
        n = self.ambient.nvars
        degs = self.ambient.degrees
        expo = [0] * n

        def rec(i: int, remaining: int):
            if i == n:
                if remaining == 0:
                    m = tuple(expo)
                    if not any(
                        self.ambient.mono_divides(lt, m) for lt in self._lt
                    ):
                        out.append(m)
                return
            maxe = remaining // degs[i]
            for e in range(maxe + 1):
                expo[i] = e
                rec(i + 1, remaining - e * degs[i])
            expo[i] = 0

        rec(0, degree)
        out.sort(key=self.ambient.mono_key)
        self._mono_basis_cache[degree] = out
        return out

    def hilbert_function(self, degree: int) -> int:
        return len(self.standard_monomials(degree))

    def dimension(self) -> int:
        """Krull dimension, via the leading-term (monomial) ideal.

        For the zero ring this returns -1.
        """
        if self.is_zero_ring:
            return -1
        if self._dimension is not None:
            return self._dimension
        n = self.ambient.nvars
        supports = [
            frozenset(i for i, e in enumerate(lt) if e > 0) for lt in self._lt
        ]
        best = 0
        for mask in range(1 << n):
            s = frozenset(i for i in range(n) if mask >> i & 1)
            if any(sup <= s for sup in supports):
                continue
            best = max(best, len(s))
        self._dimension = best
        return best

    # -- identity ----------------------------------------------------------

    def key(self):
        return self._key

    def __repr__(self):
        rel = ", ".join(str(g) for g in self.gb)
        return "GradedRing(%r mod [%s])" % (self.ambient, rel)


def make_graded_ring(field, variables, relations: Iterable[str] = ()) -> GradedRing:
    """Build k[x..]/J from a field (or tag), name->degree data and relation strings.

    variables: mapping name -> degree, an iterable of (name, degree) pairs,
    or a plain iterable of names (every degree then defaults to 1).
    """
    if isinstance(field, str):
        field = field_from_tag(field)
    if isinstance(variables, dict):
        items = list(variables.items())
    else:
        items = [
            (v, 1) if isinstance(v, str) else (v[0], v[1]) for v in variables
        ]
    ambient = PolyRing(field, [n for n, _ in items], [d for _, d in items])
    rels = [ambient.parse(s) for s in relations]
    return GradedRing(ambient, rels)
