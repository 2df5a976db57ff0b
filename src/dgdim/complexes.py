"""Bounded complexes of graded presented modules, cohomological (upper)
indexing.

The differential d^i: C^i -> C^{i+1} raises degree by one and d o d = 0.
There is one complex type, PresentedComplex; a free complex is one without
relations.  Free complexes come from minimal resolutions of modules and
from reducing semifree DG-modules to H^0; pruning (free complexes only)
makes them minimal.  Complexes with relations come from Hom and tensor of
a free complex into a module and from the underlying complexes of
DG-modules.  One routine computes the cohomology of all of them.

A complex may carry a certified lower end known_lo (None = unbounded):
components at or below it were truncated away.  Truncated complexes arise
from resolutions that were cut off, never from constructors.  A complex
may also carry an upper end known_hi, since Hom out of a truncated free
complex is truncated from above; cohomology is trusted strictly between
the two.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core.freemod import Column, GradedFreeModule, GradedMatrix, _Span, monomial_multiple
from .core.module import GradedModule, cancel_units, minimal_presentation
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
    Cohomology at i is computed from stacked syzygies: cycles are the first
    block of syz([D_i | Q_{i+1}]), and a cycle dies when it lies in the image
    of D_{i-1} together with Q_i.  Whether every cycle dies is decided first,
    by linear algebra over k one internal degree at a time
    (cohomology_vanishes), which stops at the first cycle generator that
    survives; only a nonzero H^i gets the second syzygy module and a
    minimal presentation.  When the irrelevant ideal kills H^i, the same
    count run to the end is dim_k H^i (cohomology_k_dim).
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
        self._cohomology_cache: Dict[int, CohomologyData] = {}
        self._cycle_cache: Dict[int, Optional[GradedMatrix]] = {}
        self._nonzero: Set[int] = set()
        if check:
            self.validate()

    def _trust(self, i: int) -> bool:
        return trusted_degree(i, self.known_lo, self.known_hi)

    def cover(self, i: int) -> GradedFreeModule:
        m = self.covers.get(i)
        return m if m is not None else GradedFreeModule(self.ring, ())

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

    def cohomology_k_dim(self, i: int) -> int:
        """dim_k H^i, for a complex whose H^i the irrelevant ideal kills
        (Ext from the residue field is one).  Such an H^i is spanned over k
        by the classes of the cycle generators, so its dimension is the
        number of them independent modulo the image, counted by the
        degreewise linear algebra of the vanishing test; no presentation of
        H^i is built."""
        return _surviving_cycles(self, i)


# ---------- pruning (Gaussian cancellation of unit entries) ----------


def prune_complex(C: PresentedComplex) -> PresentedComplex:
    """Homotopy-equivalent free complex with every differential entry in
    the irrelevant maximal ideal.  Bounded free complexes are
    semiprojective, so the pruned complex is the minimal free resolution of
    the original.  The unit entries are cancelled by core.module's
    cancel_units, differential by differential from the lowest."""
    if C.rels:
        raise ValueError("pruning needs a free complex, without relations")
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


# ---------- cohomology ----------


@dataclass
class CohomologyData:
    degree: int
    module: GradedModule
    representatives: List[Column]
    generator_degrees: Tuple[int, ...]

    def is_zero(self) -> bool:
        return len(self.generator_degrees) == 0


def cohomology_data(C: PresentedComplex, i: int) -> CohomologyData:
    return _cohomology(C, i)


# ---------- minimal free resolutions ----------


@dataclass
class ResolutionCertificate:
    complex: PresentedComplex
    terminated: bool
    betti: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def minimal_free_resolution_module(M: GradedModule, cutoff: int) -> ResolutionCertificate:
    """Iterated-syzygy minimal resolution of a module, placed in degrees <= 0."""
    ring = M.ring
    mp = M.minimal()
    if mp.rank == 0:
        empty = PresentedComplex(ring, {}, {})
        return ResolutionCertificate(empty, True)
    comps: Dict[int, GradedFreeModule] = {0: GradedFreeModule(ring, mp.generator_degrees)}
    diffs: Dict[int, GradedMatrix] = {}
    current = mp.matrix  # F^{-1} -> F^0, already minimal and irredundant
    step = 0
    terminated = False
    while True:
        if current.source.rank == 0:
            terminated = True
            break
        step += 1
        comps[-step] = current.source
        diffs[-step] = current
        if step > cutoff:
            break
        S = syzygy_matrix(current)
        if S.source.rank == 0:
            terminated = True
            break
        S_min = minimal_presentation(S)
        if len(S_min.survivors) != S.target.rank:
            raise AssertionError("unit entry inside a minimal resolution step")
        current = S_min.matrix
    lo = None if terminated else -step
    cplx = PresentedComplex(ring, comps, diffs, known_lo=lo)
    betti = {i: tuple(sorted(cplx.cover(i).degrees)) for i in cplx.support()}
    return ResolutionCertificate(cplx, terminated, betti)


# ---------- complexes of presented modules ----------


def _hstack(target: GradedFreeModule, mats: Sequence[Optional[GradedMatrix]]) -> GradedMatrix:
    cols: List[Column] = []
    degs: List[int] = []
    for m in mats:
        if m is not None:
            cols.extend(m.cols)
            degs.extend(m.source.degrees)
    return GradedMatrix.from_columns(target, degs, cols)


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
    cover(i), cached on P; None when there are none."""
    if i in P._cycle_cache:
        return P._cycle_cache[i]
    ring = P.ring
    cov = P.cover(i)
    K = None
    if cov.rank and not ring.is_zero_ring:
        block_out = _hstack(P.cover(i + 1), [P.diff(i), P.rel(i + 1)])
        if block_out.is_zero():
            K = GradedMatrix.identity(cov)
        else:
            # cycle = first-block projection of a syzygy of [D_i | Q_{i+1}]
            cols, degs = _first_block(syzygy_matrix(block_out), cov.rank)
            if cols:
                K = GradedMatrix.from_columns(cov, degs, cols)
    P._cycle_cache[i] = K
    return K


def _independent_columns(
    K: GradedMatrix,
    blocks: Sequence[Optional[GradedMatrix]],
    limit: Optional[int] = None,
) -> int:
    """Number of columns of K that stay k-linearly independent modulo the
    submodule generated by the columns of the blocks (None blocks are
    skipped), counted one internal degree at a time and stopping once the
    count reaches limit.  A homogeneous vector of degree d lies in a graded
    submodule exactly when it lies in its degree-d piece, which the
    standard-monomial multiples of the columns of degree <= d span over k;
    each degree-d column of K is tested modulo that piece and the degree-d
    columns of K before it."""
    ring = K.ring
    by_degree: Dict[int, List[int]] = {}
    for j, d in enumerate(K.source.degrees):
        by_degree.setdefault(d, []).append(j)
    one = ring.ambient.mono_one()
    gens = [(B.source, B.cols) for B in blocks if B is not None]
    count = 0
    for d in sorted(by_degree):
        span = _Span(ring.field)
        for source, cols in gens:
            for mono, c in source.basis_in_degree(d):
                span.insert(monomial_multiple(ring, cols[c], mono))
        for j in by_degree[d]:
            if span.insert(monomial_multiple(ring, K.cols[j], one)):
                count += 1
                if count == limit:
                    return count
    return count


def _surviving_cycles(
    P: PresentedComplex, i: int, limit: Optional[int] = None
) -> int:
    """Number of cycle generators at degree i that survive modulo the
    image of [D_{i-1} | Q_i], counted up to limit; 0 exactly when
    H^i(P) = 0.  A zero answer is cached as H^i, a nonzero one marked."""
    cached = P._cohomology_cache.get(i)
    if cached is not None and cached.is_zero():
        return 0
    if limit == 1 and i in P._nonzero:
        return 1
    K = _cycles(P, i)
    n = 0 if K is None else _independent_columns(
        K, [P.diffs.get(i - 1), P.rels.get(i)], limit
    )
    if n:
        P._nonzero.add(i)
    else:
        P._cohomology_cache[i] = CohomologyData(
            i, GradedModule.free(P.ring, ()), [], ()
        )
    return n


def _vanishes(P: PresentedComplex, i: int) -> bool:
    """H^i(P) = 0, decided by degreewise linear algebra: every cycle lies in
    the image of [D_{i-1} | Q_i], tested up to the first independent cycle
    generator.  No Groebner basis, syzygy or minimal presentation beyond
    the cycles' own."""
    return _surviving_cycles(P, i, limit=1) == 0


def _cohomology(P: PresentedComplex, i: int) -> CohomologyData:
    """H^i(P), cached on P; the one cohomology routine."""
    cached = P._cohomology_cache.get(i)
    if cached is not None:
        return cached
    if _vanishes(P, i):
        return P._cohomology_cache[i]
    K = _cycles(P, i)
    killers = _hstack(K.target, [K, P.diffs.get(i - 1), P.rels.get(i)])
    if killers.source.rank > K.source.rank:
        # relations: the K-block heads of the syzygies of [K | D | Q]
        nk = K.source.rank
        S2 = syzygy_matrix(killers)
        rel_cols: List[Column] = []
        rel_degs: List[int] = []
        for col, d in zip(S2.cols, S2.source.degrees):
            head = {r: p for r, p in col.items() if r < nk}
            if head:
                rel_cols.append(head)
                rel_degs.append(d)
        pres = GradedMatrix.from_columns(K.source, rel_degs, rel_cols)
    else:
        pres = syzygy_matrix(K)
    module = GradedModule(pres)
    mp = module.minimal()
    reps = [K.cols[t] for t in mp.survivors]
    data = CohomologyData(i, module, reps, mp.generator_degrees)
    P._cohomology_cache[i] = data
    return data


def _times_identity(
    target: GradedFreeModule, source: GradedFreeModule, E: Sequence[Column], ng: int
) -> GradedMatrix:
    """E tensor the identity of rank ng, E given by its sparse columns:
    entry (a, b) of E on the diagonal of the ng x ng block in row block a
    and column block b."""
    cols = [{a * ng + s: e for a, e in col.items()} for col in E for s in range(ng)]
    return GradedMatrix(target, source, cols, normalize=False)


def hom_free_into_module(F: PresentedComplex, N: GradedModule) -> PresentedComplex:
    """Hom(F, N) for a bounded-or-truncated free complex F, component n being
    the maps F^{-n} -> N; the n-th cover is a sum of twists of N's cover."""
    if F.rels:
        raise ValueError("Hom into a module needs a free complex, without relations")
    ring = F.ring
    mp = N.minimal()
    g_deg = mp.generator_degrees
    Q = mp.matrix
    covers: Dict[int, GradedFreeModule] = {}
    rels: Dict[int, GradedMatrix] = {}
    for j in F.support():
        n = -j
        f_deg = F.cover(j).degrees
        degs = [g - d for d in f_deg for g in g_deg]
        covers[n] = GradedFreeModule(ring, degs)
        rels[n] = GradedMatrix.block_diagonal(
            covers[n], [Q.twist(d) for d in f_deg]
        )
    diffs: Dict[int, GradedMatrix] = {}
    for n in sorted(covers):
        if (n + 1) not in covers:
            continue
        dF = F.diff(-n - 1)  # F^{-n-1} -> F^{-n}
        if not dF.is_zero():
            # -(-1)^n times the transpose of dF
            E: List[Column] = [{} for _ in range(dF.target.rank)]
            for a, col in enumerate(dF.cols):
                for b, e in col.items():
                    E[b][a] = e if n % 2 else -e
            diffs[n] = _times_identity(covers[n + 1], covers[n], E, len(g_deg))
    hi = None if F.known_lo is None else -F.known_lo
    return PresentedComplex(ring, covers, diffs, rels, known_lo=None, known_hi=hi)


def tensor_free_with_module(F: PresentedComplex, N: GradedModule) -> PresentedComplex:
    """F tensor N: component n is a sum of twists of N indexed by F^n."""
    if F.rels:
        raise ValueError("tensor with a module needs a free complex, without relations")
    ring = F.ring
    mp = N.minimal()
    g_deg = mp.generator_degrees
    Q = mp.matrix
    covers: Dict[int, GradedFreeModule] = {}
    rels: Dict[int, GradedMatrix] = {}
    for n in F.support():
        f_deg = F.cover(n).degrees
        degs = [g + d for d in f_deg for g in g_deg]
        covers[n] = GradedFreeModule(ring, degs)
        rels[n] = GradedMatrix.block_diagonal(
            covers[n], [Q.twist(-d) for d in f_deg]
        )
    diffs: Dict[int, GradedMatrix] = {}
    for n in sorted(covers):
        if (n + 1) not in covers:
            continue
        dF = F.diff(n)
        if not dF.is_zero():
            diffs[n] = _times_identity(covers[n + 1], covers[n], dF.cols, len(g_deg))
    return PresentedComplex(
        ring, covers, diffs, rels, known_lo=F.known_lo, known_hi=None
    )
