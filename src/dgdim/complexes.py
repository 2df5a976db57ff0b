"""Bounded complexes of graded presented modules, cohomological (upper)
indexing.

The differential d^i: C^i -> C^{i+1} raises degree by one and d o d = 0.
There is one complex type, PresentedComplex; a free complex is one without
relations.  Free complexes come from reducing semifree DG-modules to H^0
and, for GradedModule inputs, from iterated-syzygy minimal resolutions.
Three operations act on free complexes only: pruning makes them minimal,
dual_complex takes Hom into the ring and base_change tensors with a cyclic
quotient R/(extra).  Tor and Ext against a cyclic module R/I come from
those two by base-change adjunction: F tensor_R R/I is F over R/I, and
Hom_R(F, R/I) is the dual of that over R/I.  Complexes with relations come
only from the underlying complexes of DG-modules.  One routine computes the
cohomology of all of them: it reads the minimal generators of each H^i off
the degreewise Nakayama count of core.freemod
(GradedMatrix.minimal_columns, which minimal presentations share).
Cohomology is only ever counted, never presented as a module.

A complex may carry a certified lower end known_lo (None = unbounded):
components at or below it were truncated away.  Truncated complexes arise
only from resolutions that were cut off: the reduction of a semifree
resolution takes the window the resolution carries, and a minimal free
resolution of a module that did not terminate within its cutoff has
known_lo set (None exactly when it terminated).  A complex may also carry
an upper end known_hi, since the dual of a truncated free complex, and Hom
out of a truncated semifree resolution, are truncated from above;
cohomology is trusted strictly between the two.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core.freemod import Column, GradedFreeModule, GradedMatrix
from .core.module import GradedModule, cancel_units
from .core.poly import Poly
from .core.ring import GradedRing
from .core.syz import syzygy_engine, syzygy_matrix


def trusted_degree(
    i: int, known_lo: Optional[int], known_hi: Optional[int] = None
) -> bool:
    """Cohomology at degree i of a complex with window ends known_lo and
    known_hi (None = unbounded) is trusted strictly between them."""
    return (known_lo is None or i > known_lo) and (known_hi is None or i < known_hi)


class PresentedComplex:
    """Complex whose degree-i component is coker(rels_i) on a free cover.

    covers: cohomological degree -> GradedFreeModule (sparse); diffs and
    rels: degree i -> matrix for d^i and for the relations of degree i
    (missing = zero).  A free complex is one without relations.
    Differentials act on the covers and must carry relations into relations.
    Cohomology at i is Z/(B + Q_i): the cycles Z are generated by the first
    block of syz([D_i | Q_{i+1}]), and B is the image of D_{i-1}.  Every
    answer comes from the count of minimal generators of the cycle
    generators modulo the columns of D_{i-1} and Q_i.  cohomology_vanishes
    stops at the first one kept, cohomology keeps them all.  No Groebner
    basis beyond the cycles' own is built.
    """

    def __init__(
        self,
        ring: GradedRing,
        covers: Dict[int, GradedFreeModule],
        diffs: Dict[int, GradedMatrix],
        rels: Optional[Dict[int, GradedMatrix]] = None,
        known_lo: Optional[int] = None,
        known_hi: Optional[int] = None,
        check: bool = False,
    ):
        self.ring = ring
        self.covers = {i: m for i, m in covers.items() if m.rank > 0}
        self.diffs = {i: d for i, d in diffs.items() if not d.is_zero()}
        self.rels = {
            i: q for i, q in (rels or {}).items() if q.source.rank > 0
        }
        self.known_lo = known_lo
        self.known_hi = known_hi
        self._empty: Optional[GradedFreeModule] = None
        self._cohomology_cache: Dict[int, CohomologyData] = {}
        self._cycle_cache: Dict[int, Optional[GradedMatrix]] = {}
        self._nonzero: Set[int] = set()
        if check:
            self.validate()

    def _trust(self, i: int) -> bool:
        return trusted_degree(i, self.known_lo, self.known_hi)

    def cover(self, i: int) -> GradedFreeModule:
        """The cover in degree i; the complex's one empty module where it
        has none."""
        m = self.covers.get(i)
        if m is not None:
            return m
        if self._empty is None:
            self._empty = GradedFreeModule(self.ring, ())
        return self._empty

    def diff(self, i: int) -> GradedMatrix:
        d = self.diffs.get(i)
        if d is None:
            return GradedMatrix.zero(self.cover(i + 1), self.cover(i))
        return d

    def rel(self, i: int) -> Optional[GradedMatrix]:
        return self.rels.get(i)

    def support(self) -> List[int]:
        return sorted(self.covers)

    def validate(self) -> None:
        for i, d in self.diffs.items():
            if d.target.degrees != self.cover(i + 1).degrees:
                raise ValueError("differential %d target mismatch" % i)
            if d.source.degrees != self.cover(i).degrees:
                raise ValueError("differential %d source mismatch" % i)
            d.check_homogeneous()
            nxt = self.rel(i + 1)
            # relations must map into relations
            q = self.rel(i)
            if q is not None:
                for col in q.cols:
                    img = d.apply_to_vector(col)
                    if img:
                        if nxt is None or not syzygy_engine(nxt).contains(img):
                            raise ValueError("relations escape at degree %d" % i)
            # d^2 must vanish on the quotient
            if i + 1 in self.diffs:
                comp = self.diffs[i + 1].compose(d)
                for col in comp.cols:
                    if col:
                        q2 = self.rel(i + 2)
                        if q2 is None or not syzygy_engine(q2).contains(col):
                            raise ValueError("d^2 nonzero modulo relations at %d" % i)
        for i, q in self.rels.items():
            q.check_homogeneous()

    def cohomology(self, i: int) -> CohomologyData:
        return _cohomology(self, i)

    def cohomology_vanishes(self, i: int) -> bool:
        return _vanishes(self, i)


# ---------- operations on free complexes ----------


def prune_complex(C: PresentedComplex) -> PresentedComplex:
    """Homotopy-equivalent free complex with every differential entry in
    the irrelevant maximal ideal.  Bounded free complexes are
    semiprojective, so the pruned complex is the minimal free resolution of
    the original.  The unit entries are cancelled by core.module's
    cancel_units, differential by differential from the lowest.  A complex
    without a unit entry is already minimal and is returned as it is."""
    if C.rels:
        raise ValueError("pruning needs a free complex, without relations")
    if not any(
        e.degree() == 0 for d in C.diffs.values() for col in d.cols for e in col.values()
    ):
        return C
    ring = C.ring
    alive = {i: list(range(m.rank)) for i, m in C.covers.items()}
    diffs: Dict[int, List[Column]] = {
        i: [dict(col) for col in d.cols] for i, d in C.diffs.items()
    }
    cancel_units(ring, diffs, alive)
    out_covers = {
        i: GradedFreeModule(ring, [m.degrees[g] for g in alive[i]])
        for i, m in C.covers.items()
        if alive[i]
    }
    empty = GradedFreeModule(ring, ())
    out_diffs = {}
    for i, cols in diffs.items():
        pos = {g: k for k, g in enumerate(alive[i + 1])}
        out_diffs[i] = GradedMatrix(
            out_covers.get(i + 1, empty),
            out_covers.get(i, empty),
            [{pos[r]: e for r, e in cols[c].items()} for c in alive[i]],
            normalize=False,
        )
    return PresentedComplex(
        ring, out_covers, out_diffs, known_lo=C.known_lo, known_hi=C.known_hi
    )


def dual_complex(F: PresentedComplex) -> PresentedComplex:
    """Hom_R(F, R) for a bounded-or-truncated free complex F over R.  Its
    degree-n cover is the dual of F^{-n}, every twist negated, and d^n is
    -(-1)^n times the transpose of d_F^{-n-1}; the window is flipped, so a
    truncation of F from below truncates the dual from above."""
    if F.rels:
        raise ValueError("the dual needs a free complex, without relations")
    ring = F.ring
    covers = {
        -j: GradedFreeModule(ring, [-d for d in m.degrees]) for j, m in F.covers.items()
    }
    diffs: Dict[int, GradedMatrix] = {}
    for j, dF in F.diffs.items():  # F^j -> F^{j+1} dualizes to d^n, n = -j - 1
        n = -j - 1
        cols: List[Column] = [{} for _ in range(dF.target.rank)]
        for a, col in enumerate(dF.cols):
            for b, e in col.items():
                cols[b][a] = e if n % 2 else -e
        diffs[n] = GradedMatrix(covers[n + 1], covers[n], cols, normalize=False)
    return PresentedComplex(
        ring,
        covers,
        diffs,
        known_lo=None if F.known_hi is None else -F.known_hi,
        known_hi=None if F.known_lo is None else -F.known_lo,
    )


def base_change(F: PresentedComplex, extra: Sequence[Poly]) -> PresentedComplex:
    """F tensor_R R/(extra) for a free complex F over R: the same covers over
    the quotient ring, every differential entry taken modulo extra, and the
    same window.  With no nonzero extra the ring is R itself."""
    if F.rels:
        raise ValueError("base change needs a free complex, without relations")
    ring = F.ring.quotient(extra)
    covers = {i: GradedFreeModule(ring, m.degrees) for i, m in F.covers.items()}
    diffs = {
        i: GradedMatrix(covers[i + 1], covers[i], d.cols) for i, d in F.diffs.items()
    }
    return PresentedComplex(
        ring, covers, diffs, known_lo=F.known_lo, known_hi=F.known_hi
    )


# ---------- cohomology ----------


class CohomologyData:
    """H^i of a presented complex, on a minimal set of generators.

    representatives are the cycle generators whose classes minimally
    generate H^i, in ascending index order, and generator_degrees their
    degrees.
    """

    def __init__(
        self,
        degree: int,
        representatives: List[Column],
        generator_degrees: Tuple[int, ...],
    ):
        self.degree = degree
        self.representatives = representatives
        self.generator_degrees = generator_degrees

    def is_zero(self) -> bool:
        return len(self.generator_degrees) == 0


def cohomology_data(C: PresentedComplex, i: int) -> CohomologyData:
    return _cohomology(C, i)


# ---------- minimal free resolutions ----------


def minimal_free_resolution_module(M: GradedModule, cutoff: int) -> PresentedComplex:
    """Iterated-syzygy minimal resolution of a module, placed in degrees <= 0.
    Its known_lo is None exactly when it terminated; otherwise it stopped
    after cutoff + 1 steps, and its cohomology is trusted only above its
    lowest component.  It serves GradedModule inputs (the Betti presentation
    check) and is the tests' reference for the semifree tower, on which every
    DG-module resolves; bench/tracer.py wraps it."""
    ring = M.ring
    mp = M.minimal()
    if mp.rank == 0:
        return PresentedComplex(ring, {}, {})
    comps: Dict[int, GradedFreeModule] = {0: GradedFreeModule(ring, mp.generator_degrees)}
    diffs: Dict[int, GradedMatrix] = {}
    current = mp.matrix  # F^{-1} -> F^0, already minimal and irredundant
    step = 0
    while current.source.rank:
        step += 1
        comps[-step] = current.source
        diffs[-step] = current
        if step > cutoff:
            return PresentedComplex(ring, comps, diffs, known_lo=-step)
        S = syzygy_matrix(current)
        if S.source.rank == 0:
            break
        S_min = GradedModule(S).minimal()
        if len(S_min.survivors) != S.target.rank:
            raise AssertionError("unit entry inside a minimal resolution step")
        current = S_min.matrix
    return PresentedComplex(ring, comps, diffs)


# ---------- complexes of presented modules ----------


def _first_block(S: GradedMatrix, nrows: int) -> Tuple[List[Column], List[int]]:
    """The nonzero projections of S's columns to the rows below nrows, each
    kept at its first occurrence, with their degrees."""
    cols = []
    degs = []
    seen = set()
    for col, d in zip(S.cols, S.source.degrees):
        head = {r: p for r, p in col.items() if r < nrows}
        if not head:
            continue
        key = tuple(sorted((r, p.terms_key()) for r, p in head.items()))
        if key in seen:
            continue
        seen.add(key)
        cols.append(head)
        degs.append(d)
    return cols, degs


def _cycles(P: PresentedComplex, i: int) -> Optional[GradedMatrix]:
    """Generators of the cycles at i as the columns of a matrix into
    cover(i), cached on P; None when there are none.

    A cycle is the first-block projection of a syzygy of [D_i | Q_{i+1}].
    Without relations at i + 1 that block is D_i itself, used as it is.
    Without D_i every element of the cover is a cycle, and the generators
    are its unit vectors: the identity, or, with relations at i + 1, the
    unit vectors in the order syzygy_matrix gives the syzygies of
    [0 | Q_{i+1}], by degree and then by descending index.  Neither case
    builds a stacked block or a Groebner basis."""
    if i in P._cycle_cache:
        return P._cycle_cache[i]
    cov = P.cover(i)
    K = None
    if cov.rank and not P.ring.is_zero_ring:
        D = P.diffs.get(i)
        Q = P.rels.get(i + 1)
        if D is None and Q is None:
            K = GradedMatrix.identity(cov)
        elif D is None:
            order = sorted(range(cov.rank), key=lambda j: (cov.degrees[j], -j))
            one = P.ring.one()
            K = GradedMatrix.from_columns(
                cov, [cov.degrees[j] for j in order], [{j: one} for j in order]
            )
        else:
            block_out = D if Q is None else GradedMatrix.from_columns(
                D.target, D.source.degrees + Q.source.degrees, D.cols + Q.cols
            )
            cols, degs = _first_block(syzygy_matrix(block_out), cov.rank)
            if cols:
                K = GradedMatrix.from_columns(cov, degs, cols)
    P._cycle_cache[i] = K
    return K


def _image_blocks(P: PresentedComplex, i: int) -> List[GradedMatrix]:
    """The nonzero ones of [D_{i-1}, Q_i]: the blocks whose columns generate
    the image that H^i is taken modulo."""
    return [B for B in (P.diffs.get(i - 1), P.rels.get(i)) if B is not None]


def _vanishes(P: PresentedComplex, i: int) -> bool:
    """H^i(P) = 0: no cycle generator survives modulo the image, tested up
    to the first that does.  A zero answer is cached as H^i, a nonzero one
    marked."""
    cached = P._cohomology_cache.get(i)
    if cached is not None:
        return cached.is_zero()
    if i in P._nonzero:
        return False
    K = _cycles(P, i)
    if K is not None and K.minimal_columns(_image_blocks(P, i), limit=1):
        P._nonzero.add(i)
        return False
    P._cohomology_cache[i] = CohomologyData(i, [], ())
    return True


def _cohomology(P: PresentedComplex, i: int) -> CohomologyData:
    """H^i(P), cached on P; the one cohomology routine.  Its minimal
    generators are the cycle generators that GradedMatrix.minimal_columns
    keeps modulo the image; no Groebner basis beyond the cycles' own is
    built."""
    cached = P._cohomology_cache.get(i)
    if cached is not None:
        return cached
    K = _cycles(P, i)
    kept = [] if K is None else K.minimal_columns(_image_blocks(P, i))
    data = CohomologyData(
        i, [K.cols[j] for j in kept], tuple(K.source.degrees[j] for j in kept)
    )
    P._cohomology_cache[i] = data
    return data
