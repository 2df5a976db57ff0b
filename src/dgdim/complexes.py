"""Bounded complexes of graded free modules, cohomological (upper) indexing.

The differential d^i: C^i -> C^{i+1} raises degree by one and d o d = 0.
Free complexes come from minimal resolutions of modules and from reducing
semifree DG-modules to H^0; pruning makes them minimal.  Cohomology is
computed on complexes of presented modules, a free complex being one
without relations.

A complex may carry a certified lower end known_lo (None = unbounded):
components at or below it were truncated away.  Truncated complexes arise
from resolutions that were cut off, never from constructors.  Only
presented complexes also carry an upper end known_hi, since Hom out of a
truncated free complex is truncated from above; their cohomology is
trusted strictly between the two.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core.freemod import GradedFreeModule, GradedMatrix, _Span, monomial_multiple
from .core.module import GradedModule, minimal_presentation
from .core.poly import Poly
from .core.ring import GradedRing
from .core.syz import syzygy_engine, syzygy_matrix


class FreeComplex:
    """components: cohomological degree -> GradedFreeModule (sparse);
    differentials: degree i -> matrix for d^i (missing = zero)."""

    def __init__(
        self,
        ring: GradedRing,
        components: Dict[int, GradedFreeModule],
        differentials: Dict[int, GradedMatrix],
        known_lo: Optional[int] = None,
        check: bool = True,
    ):
        self.ring = ring
        self.components = {
            i: m for i, m in components.items() if m.rank > 0
        }
        self.differentials = {
            i: d for i, d in differentials.items() if not d.is_zero()
        }
        self.known_lo = known_lo
        self._presented: Optional["PresentedComplex"] = None
        if check:
            self.validate()

    def component(self, i: int) -> GradedFreeModule:
        m = self.components.get(i)
        if m is None:
            return GradedFreeModule(self.ring, ())
        return m

    def differential(self, i: int) -> GradedMatrix:
        d = self.differentials.get(i)
        if d is None:
            return GradedMatrix.zero(self.component(i + 1), self.component(i))
        return d

    def support(self) -> List[int]:
        return sorted(self.components)

    def validate(self) -> None:
        for i, d in self.differentials.items():
            if d.target.degrees != self.component(i + 1).degrees:
                raise ValueError("differential %d target mismatch" % i)
            if d.source.degrees != self.component(i).degrees:
                raise ValueError("differential %d source mismatch" % i)
            d.check_homogeneous()
        for i in list(self.differentials):
            if i + 1 in self.differentials:
                if not self.differentials[i + 1].compose(self.differentials[i]).is_zero():
                    raise ValueError("d^2 != 0 between degrees %d and %d" % (i, i + 2))

    def __repr__(self):
        parts = ", ".join(
            "%d:%s" % (i, list(self.component(i).degrees)) for i in self.support()
        )
        return "FreeComplex(%s)" % parts


# ---------- pruning (Gaussian cancellation of unit entries) ----------


def prune_complex(C: FreeComplex) -> FreeComplex:
    """Homotopy-equivalent complex with every differential entry in the
    irrelevant maximal ideal.  Bounded free complexes are semiprojective, so
    the pruned complex is the minimal free resolution of the original."""
    ring = C.ring
    comps = {i: list(m.degrees) for i, m in C.components.items()}
    diffs: Dict[int, List[List[Poly]]] = {
        i: [list(r) for r in d.entries] for i, d in C.differentials.items()
    }

    changed = True
    while changed:
        changed = False
        for i in sorted(diffs):
            rows = diffs[i]
            if not rows or not rows[0]:
                continue
            pivot = None
            for r, row in enumerate(rows):
                for c, e in enumerate(row):
                    if e and e.degree() == 0:
                        pivot = (r, c)
                        break
                if pivot:
                    break
            if pivot is None:
                continue
            r0, c0 = pivot
            u = rows[r0][c0].terms[ring.ambient.mono_one()]
            uinv = ring.field.inv(u)
            # correct the same differential
            nrows = len(rows)
            ncols = len(rows[0])
            for r in range(nrows):
                if r == r0:
                    continue
                lead = rows[r][c0]
                if not lead:
                    continue
                for c in range(ncols):
                    if c == c0 or not rows[r0][c]:
                        continue
                    rows[r][c] = ring.normal_form(
                        rows[r][c] - lead.scale(uinv) * rows[r0][c]
                    )
            # drop row r0 from incoming differential d^{i-1}: source gen c0 of
            # C^i disappears, target gen r0 of C^{i+1} disappears.
            prev = diffs.get(i - 1)
            if prev is not None and prev:
                del prev[c0]
                if not prev:
                    del diffs[i - 1]
            nxt = diffs.get(i + 1)
            if nxt is not None:
                nxt2 = [
                    [row[c] for c in range(len(row)) if c != r0] for row in nxt
                ]
                if not nxt2 or not nxt2[0]:
                    del diffs[i + 1]
                else:
                    diffs[i + 1] = nxt2
            diffs[i] = [
                [rows[r][c] for c in range(ncols) if c != c0]
                for r in range(nrows)
                if r != r0
            ]
            if not diffs[i] or not diffs[i][0]:
                del diffs[i]
            comps[i].pop(c0)
            comps[i + 1].pop(r0)
            changed = True
            break
    out_comps = {
        i: GradedFreeModule(ring, degs) for i, degs in comps.items() if degs
    }
    out_diffs = {}
    for i, rows in diffs.items():
        tgt = out_comps.get(i + 1, GradedFreeModule(ring, ()))
        src = out_comps.get(i, GradedFreeModule(ring, ()))
        out_diffs[i] = GradedMatrix(tgt, src, rows, normalize=False)
    return FreeComplex(ring, out_comps, out_diffs, C.known_lo, check=False)


# ---------- cohomology ----------


@dataclass
class CohomologyData:
    degree: int
    module: GradedModule
    representatives: List[List[Poly]]
    generator_degrees: Tuple[int, ...]

    def is_zero(self) -> bool:
        return len(self.generator_degrees) == 0


def cohomology_data(C: FreeComplex, i: int) -> CohomologyData:
    """H^i of a free complex: the presented complex without relations,
    built once and cached on C."""
    if C._presented is None:
        C._presented = PresentedComplex(
            C.ring, C.components, C.differentials, {}, C.known_lo
        )
    return _cohomology(C._presented, i)


# ---------- minimal free resolutions ----------


@dataclass
class ResolutionCertificate:
    complex: FreeComplex
    terminated: bool
    betti: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def minimal_free_resolution_module(M: GradedModule, cutoff: int) -> ResolutionCertificate:
    """Iterated-syzygy minimal resolution of a module, placed in degrees <= 0."""
    ring = M.ring
    mp = M.minimal()
    if mp.rank == 0:
        empty = FreeComplex(ring, {}, {}, check=False)
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
    cplx = FreeComplex(ring, comps, diffs, known_lo=lo, check=False)
    betti = {i: tuple(sorted(cplx.component(i).degrees)) for i in cplx.support()}
    return ResolutionCertificate(cplx, terminated, betti)


# ---------- complexes of presented modules ----------


def _hstack(target: GradedFreeModule, mats: Sequence[Optional[GradedMatrix]]) -> GradedMatrix:
    cols: List[List[Poly]] = []
    degs: List[int] = []
    for m in mats:
        if m is None:
            continue
        for j in range(m.source.rank):
            cols.append(m.column(j))
            degs.append(m.source.degrees[j])
    return GradedMatrix.from_columns(target, degs, cols)


def _first_block(S: GradedMatrix, nrows: int) -> Tuple[List[List[Poly]], List[int]]:
    cols = []
    degs = []
    seen = set()
    for j in range(S.source.rank):
        col = [S.entries[r][j] for r in range(nrows)]
        if all(p.is_zero() for p in col):
            continue
        key = tuple(p.terms_key() for p in col)
        if key in seen:
            continue
        seen.add(key)
        cols.append(col)
        degs.append(S.source.degrees[j])
    return cols, degs


class PresentedComplex:
    """Complex whose degree-i component is coker(rels_i) on a free cover.

    Differentials act on the covers and must carry relations into relations.
    Cohomology at i is computed from stacked syzygies: cycles are the first
    block of syz([D_i | Q_{i+1}]), and a cycle dies when it lies in the image
    of D_{i-1} together with Q_i.  Whether every cycle dies is decided first,
    by linear algebra over k one internal degree at a time
    (cohomology_vanishes); only a nonzero H^i gets the second syzygy module
    and a minimal presentation.
    """

    def __init__(
        self,
        ring: GradedRing,
        covers: Dict[int, GradedFreeModule],
        diffs: Dict[int, GradedMatrix],
        rels: Dict[int, GradedMatrix],
        known_lo: Optional[int] = None,
        known_hi: Optional[int] = None,
        check: bool = False,
    ):
        self.ring = ring
        self.covers = {i: m for i, m in covers.items() if m.rank > 0}
        self.diffs = {i: d for i, d in diffs.items() if not d.is_zero()}
        self.rels = {
            i: q for i, q in rels.items() if q.source.rank > 0
        }
        self.known_lo = known_lo
        self.known_hi = known_hi
        self._cohomology_cache: Dict[int, CohomologyData] = {}
        self._cycle_cache: Dict[int, Optional[GradedMatrix]] = {}
        self._nonzero: Set[int] = set()
        if check:
            self.validate()

    def _trust(self, i: int) -> bool:
        """Cohomology at i is trusted strictly inside [known_lo, known_hi]."""
        return (self.known_lo is None or i > self.known_lo) and (
            self.known_hi is None or i < self.known_hi
        )

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
            d.check_homogeneous()
            nxt = self.rel(i + 1)
            # relations must map into relations
            q = self.rel(i)
            if q is not None:
                for j in range(q.source.rank):
                    img = d.apply_to_vector(q.column(j))
                    if any(p for p in img):
                        if nxt is None or not syzygy_engine(nxt).contains(img):
                            raise ValueError("relations escape at degree %d" % i)
            # d^2 must vanish on the quotient
            if i + 1 in self.diffs:
                comp = self.diffs[i + 1].compose(d)
                for j in range(comp.source.rank):
                    col = comp.column(j)
                    if any(p for p in col):
                        q2 = self.rel(i + 2)
                        if q2 is None or not syzygy_engine(q2).contains(col):
                            raise ValueError("d^2 nonzero modulo relations at %d" % i)
        for i, q in self.rels.items():
            q.check_homogeneous()

    def cohomology(self, i: int) -> CohomologyData:
        return _cohomology(self, i)

    def cohomology_vanishes(self, i: int) -> bool:
        return _vanishes(self, i)


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


def _columns_in_image(
    K: GradedMatrix, blocks: Sequence[Optional[GradedMatrix]]
) -> bool:
    """True when every column of K lies in the submodule generated by the
    columns of the blocks (None blocks are skipped).  A homogeneous vector
    of degree d lies in a graded submodule exactly when it lies in its
    degree-d piece, which the standard-monomial multiples of the columns of
    degree <= d span over k."""
    ring = K.ring
    by_degree: Dict[int, List[int]] = {}
    for j, d in enumerate(K.source.degrees):
        by_degree.setdefault(d, []).append(j)
    one = ring.ambient.mono_one()
    gens = [(B.source, B.columns()) for B in blocks if B is not None]
    for d in sorted(by_degree):
        span = _Span(ring.field)
        for source, cols in gens:
            for mono, c in source.basis_in_degree(d):
                span.insert(monomial_multiple(ring, cols[c], mono))
        for j in by_degree[d]:
            if span.insert(monomial_multiple(ring, K.column(j), one)):
                return False
    return True


def _vanishes(P: PresentedComplex, i: int) -> bool:
    """H^i(P) = 0, decided by degreewise linear algebra: every cycle lies in
    the image of [D_{i-1} | Q_i].  No Groebner basis, syzygy or minimal
    presentation beyond the cycles' own; a zero answer is cached as H^i."""
    cached = P._cohomology_cache.get(i)
    if cached is not None:
        return cached.is_zero()
    if i in P._nonzero:
        return False
    K = _cycles(P, i)
    if K is None or _columns_in_image(K, [P.diffs.get(i - 1), P.rels.get(i)]):
        P._cohomology_cache[i] = CohomologyData(
            i, GradedModule.free(P.ring, ()), [], ()
        )
        return True
    P._nonzero.add(i)
    return False


def _cohomology(P: PresentedComplex, i: int) -> CohomologyData:
    """H^i(P), cached on P; the one routine behind both complex kinds."""
    cached = P._cohomology_cache.get(i)
    if cached is not None:
        return cached
    if _vanishes(P, i):
        return P._cohomology_cache[i]
    K = _cycles(P, i)
    killers = _hstack(K.target, [K, P.diffs.get(i - 1), P.rels.get(i)])
    rel_cols: List[List[Poly]] = []
    rel_degs: List[int] = []
    if killers.source.rank > K.source.rank:
        S2 = syzygy_matrix(killers)
        for j in range(S2.source.rank):
            head = [S2.entries[r][j] for r in range(K.source.rank)]
            if all(p.is_zero() for p in head):
                continue
            rel_cols.append(head)
            rel_degs.append(S2.source.degrees[j])
    else:
        S2 = syzygy_matrix(K)
        for j in range(S2.source.rank):
            rel_cols.append(S2.column(j))
            rel_degs.append(S2.source.degrees[j])
    pres = GradedMatrix.from_columns(K.source, rel_degs, rel_cols)
    module = GradedModule(pres)
    mp = module.minimal()
    reps = [K.column(t) for t in mp.survivors]
    data = CohomologyData(i, module, reps, mp.generator_degrees)
    P._cohomology_cache[i] = data
    return data


def _times_identity(
    target: GradedFreeModule, source: GradedFreeModule, E, ng: int
) -> GradedMatrix:
    """E tensor the identity of rank ng: entry E[a][b] on the diagonal of
    the ng x ng block in row block a and column block b."""
    z = target.ring.zero()
    rows = [[z] * source.rank for _ in range(target.rank)]
    for a, row in enumerate(E):
        for b, e in enumerate(row):
            if e:
                for s in range(ng):
                    rows[a * ng + s][b * ng + s] = e
    return GradedMatrix(target, source, rows, normalize=False)


def hom_free_into_module(F: FreeComplex, N: GradedModule) -> PresentedComplex:
    """Hom(F, N) for a bounded-or-truncated free complex F, component n being
    the maps F^{-n} -> N; the n-th cover is a sum of twists of N's cover."""
    ring = F.ring
    mp = N.minimal()
    g_deg = mp.generator_degrees
    Q = mp.matrix
    covers: Dict[int, GradedFreeModule] = {}
    rels: Dict[int, GradedMatrix] = {}
    for j in F.support():
        n = -j
        f_deg = F.component(j).degrees
        degs = [g - d for d in f_deg for g in g_deg]
        covers[n] = GradedFreeModule(ring, degs)
        rels[n] = GradedMatrix.block_diagonal(
            covers[n], [Q.twist(d) for d in f_deg]
        )
    diffs: Dict[int, GradedMatrix] = {}
    for n in sorted(covers):
        if (n + 1) not in covers:
            continue
        dF = F.differential(-n - 1)  # F^{-n-1} -> F^{-n}
        if not dF.is_zero():
            # -(-1)^n times the transpose of dF
            E = [[e if n % 2 else -e for e in col] for col in dF.columns()]
            diffs[n] = _times_identity(covers[n + 1], covers[n], E, len(g_deg))
    hi = None if F.known_lo is None else -F.known_lo
    return PresentedComplex(ring, covers, diffs, rels, known_lo=None, known_hi=hi)


def tensor_free_with_module(F: FreeComplex, N: GradedModule) -> PresentedComplex:
    """F tensor N: component n is a sum of twists of N indexed by F^n."""
    ring = F.ring
    mp = N.minimal()
    g_deg = mp.generator_degrees
    Q = mp.matrix
    covers: Dict[int, GradedFreeModule] = {}
    rels: Dict[int, GradedMatrix] = {}
    for n in F.support():
        f_deg = F.component(n).degrees
        degs = [g + d for d in f_deg for g in g_deg]
        covers[n] = GradedFreeModule(ring, degs)
        rels[n] = GradedMatrix.block_diagonal(
            covers[n], [Q.twist(-d) for d in f_deg]
        )
    diffs: Dict[int, GradedMatrix] = {}
    for n in sorted(covers):
        if (n + 1) not in covers:
            continue
        dF = F.differential(n)
        if not dF.is_zero():
            diffs[n] = _times_identity(covers[n + 1], covers[n], dF.entries, len(g_deg))
    return PresentedComplex(
        ring, covers, diffs, rels, known_lo=F.known_lo, known_hi=None
    )
