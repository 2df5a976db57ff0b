"""Bounded complexes of graded free modules, cohomological (upper) indexing.

The differential d^i: C^i -> C^{i+1} raises degree by one and d o d = 0.
Shifts satisfy (C[n])^i = C^{i+n} with differential scaled by (-1)^n; the
tensor totalization puts the sign (-1)^i on the second differential in
component (i, j), and Hom uses (d phi) = d o phi - (-1)^n phi o d.

A complex may carry a certified component window [known_lo, known_hi]
(None = unbounded): components outside the window were truncated away and
cohomology is only trusted strictly inside it.  Truncated complexes arise
from resolutions that were cut off, never from constructors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core.freemod import GradedFreeModule, GradedMatrix, _Span, monomial_multiple
from .core.module import GradedModule, minimal_presentation
from .core.poly import Poly
from .core.ring import GradedRing
from .core.syz import syzygy_engine, syzygy_matrix

NEG_INF = "-infinity"


def _combine_lo(*vals):
    vals = [v for v in vals if v is not None]
    return max(vals) if vals else None


class _Windowed:
    """A complex with a certified component window [known_lo, known_hi]."""

    known_lo: Optional[int]
    known_hi: Optional[int]

    def _trust(self, i: int) -> bool:
        """Cohomology at i is trusted strictly inside the window."""
        return (self.known_lo is None or i > self.known_lo) and (
            self.known_hi is None or i < self.known_hi
        )


class FreeComplex(_Windowed):
    """components: cohomological degree -> GradedFreeModule (sparse);
    differentials: degree i -> matrix for d^i (missing = zero)."""

    def __init__(
        self,
        ring: GradedRing,
        components: Dict[int, GradedFreeModule],
        differentials: Dict[int, GradedMatrix],
        known_lo: Optional[int] = None,
        known_hi: Optional[int] = None,
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
        self.known_hi = known_hi
        self._presented: Optional["PresentedComplex"] = None
        if check:
            self.validate()

    # -- structure ---------------------------------------------------------

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

    def is_zero_complex(self) -> bool:
        return not self.components

    def min_degree(self) -> Optional[int]:
        s = self.support()
        return s[0] if s else None

    def max_degree(self) -> Optional[int]:
        s = self.support()
        return s[-1] if s else None

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

    def certified_cohomology_range(self) -> Tuple[Optional[int], Optional[int]]:
        lo = None if self.known_lo is None else self.known_lo + 1
        hi = None if self.known_hi is None else self.known_hi - 1
        return lo, hi

    # -- constructions ------------------------------------------------------

    def shift(self, n: int) -> "FreeComplex":
        comps = {i - n: m for i, m in self.components.items()}
        sign = -1 if n % 2 else 1
        diffs = {i - n: d.scale_sign(sign) for i, d in self.differentials.items()}
        return FreeComplex(
            self.ring,
            comps,
            diffs,
            known_lo=None if self.known_lo is None else self.known_lo - n,
            known_hi=None if self.known_hi is None else self.known_hi - n,
            check=False,
        )

    def twist(self, t: int) -> "FreeComplex":
        comps = {i: m.twist(t) for i, m in self.components.items()}
        diffs = {i: d.twist(t) for i, d in self.differentials.items()}
        return FreeComplex(
            self.ring, comps, diffs, self.known_lo, self.known_hi, check=False
        )

    def direct_sum(self, other: "FreeComplex") -> "FreeComplex":
        comps = {
            i: GradedFreeModule(
                self.ring, self.component(i).degrees + other.component(i).degrees
            )
            for i in set(self.components) | set(other.components)
        }
        diffs = {
            i: GradedMatrix.block_diagonal(
                comps[i + 1], [self.differential(i), other.differential(i)]
            )
            for i in set(self.differentials) | set(other.differentials)
        }
        return FreeComplex(
            self.ring,
            comps,
            diffs,
            known_lo=_combine_lo(self.known_lo, other.known_lo),
            known_hi=None
            if (self.known_hi is None and other.known_hi is None)
            else min(
                x for x in (self.known_hi, other.known_hi) if x is not None
            ),
            check=False,
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "components": [
                {"degree": i, "twists": list(self.component(i).degrees)}
                for i in self.support()
            ],
            "differentials": [
                {
                    "degree": i,
                    "matrix": [
                        [str(e) for e in row] for row in self.differentials[i].entries
                    ],
                }
                for i in sorted(self.differentials)
            ],
        }

    def __repr__(self):
        parts = ", ".join(
            "%d:%s" % (i, list(self.component(i).degrees)) for i in self.support()
        )
        return "FreeComplex(%s)" % parts


def make_complex(
    ring: GradedRing,
    components: Dict[int, Sequence[int]],
    differentials: Dict[int, Sequence[Sequence[Poly]]],
) -> FreeComplex:
    comps = {i: GradedFreeModule(ring, tw) for i, tw in components.items()}
    diffs = {}
    for i, rows in differentials.items():
        tgt = comps.get(i + 1, GradedFreeModule(ring, ()))
        src = comps.get(i, GradedFreeModule(ring, ()))
        diffs[i] = GradedMatrix(tgt, src, rows)
    return FreeComplex(ring, comps, diffs)


def complex_from_json(data: dict, ring: Optional[GradedRing] = None) -> FreeComplex:
    from .core.ring import graded_ring_from_json

    if ring is None:
        ring = graded_ring_from_json(data["ring"])
    comps = {
        int(c["degree"]): GradedFreeModule(ring, c["twists"])
        for c in data["components"]
    }
    diffs = {}
    for d in data.get("differentials", []):
        i = int(d["degree"])
        tgt = comps.get(i + 1, GradedFreeModule(ring, ()))
        src = comps.get(i, GradedFreeModule(ring, ()))
        rows = [[ring.parse(s) for s in row] for row in d["matrix"]]
        diffs[i] = GradedMatrix(tgt, src, rows)
    return FreeComplex(ring, comps, diffs)


class ChainMap:
    """Degree-zero chain map between complexes over the same ring."""

    def __init__(self, source: FreeComplex, target: FreeComplex, comps: Dict[int, GradedMatrix], check: bool = True):
        self.source = source
        self.target = target
        self.comps = {i: m for i, m in comps.items() if not m.is_zero()}
        if check:
            self.validate()

    def component(self, i: int) -> GradedMatrix:
        m = self.comps.get(i)
        if m is None:
            return GradedMatrix.zero(self.target.component(i), self.source.component(i))
        return m

    def validate(self) -> None:
        for i, m in self.comps.items():
            if m.source.degrees != self.source.component(i).degrees:
                raise ValueError("chain map source mismatch at %d" % i)
            if m.target.degrees != self.target.component(i).degrees:
                raise ValueError("chain map target mismatch at %d" % i)
        degrees = set(self.comps) | set(self.source.differentials)
        for i in degrees:
            left = self.target.differential(i).compose(self.component(i))
            right = self.component(i + 1).compose(self.source.differential(i))
            if not left.add(right.negate()).is_zero():
                raise ValueError("does not commute with differentials at %d" % i)


def mapping_cone(f: ChainMap) -> FreeComplex:
    """cone(f: X -> Y): component Y^i + X^{i+1}, d = [[d_Y, f],[0, -d_X]]."""
    X, Y = f.source, f.target
    ring = Y.ring
    comps: Dict[int, GradedFreeModule] = {}
    degrees = set(Y.components) | {i - 1 for i in X.components}
    for i in degrees:
        comps[i] = GradedFreeModule(
            ring, Y.component(i).degrees + X.component(i + 1).degrees
        )
    diffs: Dict[int, GradedMatrix] = {}
    for i in degrees:
        tgt = comps.get(i + 1)
        if tgt is None:
            continue
        src = comps[i]
        dY = Y.differential(i)
        dX = X.differential(i + 1)
        fm = f.component(i + 1)
        z = ring.zero()
        rows = []
        ny, nx = Y.component(i).rank, X.component(i + 1).rank
        for r in range(Y.component(i + 1).rank):
            rows.append(
                [dY.entries[r][c] for c in range(ny)]
                + [fm.entries[r][c] for c in range(nx)]
            )
        for r in range(X.component(i + 2).rank):
            rows.append(
                [z] * ny + [-dX.entries[r][c] for c in range(nx)]
            )
        diffs[i] = GradedMatrix(tgt, src, rows, normalize=False)
    lo = _combine_lo(
        Y.known_lo, None if X.known_lo is None else X.known_lo - 1
    )
    return FreeComplex(ring, comps, diffs, known_lo=lo, check=False)


def tensor_complex(X: FreeComplex, Y: FreeComplex) -> FreeComplex:
    """Totalization of X tensor Y with Koszul signs on the second factor."""
    ring = X.ring
    # collect generators per total degree as (i, a_idx, j, b_idx)
    gens: Dict[int, List[Tuple[int, int, int, int]]] = {}
    for i in X.support():
        for j in Y.support():
            n = i + j
            for a in range(X.component(i).rank):
                for b in range(Y.component(j).rank):
                    gens.setdefault(n, []).append((i, a, j, b))
    comps = {}
    for n, lst in gens.items():
        lst.sort()
        degs = [
            X.component(i).degrees[a] + Y.component(j).degrees[b]
            for (i, a, j, b) in lst
        ]
        comps[n] = GradedFreeModule(ring, degs)
    index = {
        n: {key: t for t, key in enumerate(lst)} for n, lst in gens.items()
    }
    diffs = {}
    z = ring.zero()
    for n in sorted(gens):
        if n + 1 not in gens:
            continue
        src_list = gens[n]
        tgt_list = gens[n + 1]
        rows = [[z] * len(src_list) for _ in tgt_list]
        for c, (i, a, j, b) in enumerate(src_list):
            dX = X.differentials.get(i)
            if dX is not None:
                for a2 in range(dX.target.rank):
                    e = dX.entries[a2][a]
                    if e:
                        r = index[n + 1][(i + 1, a2, j, b)]
                        rows[r][c] = rows[r][c] + e
            dY = Y.differentials.get(j)
            if dY is not None:
                sign = -1 if i % 2 else 1
                for b2 in range(dY.target.rank):
                    e = dY.entries[b2][b]
                    if e:
                        r = index[n + 1][(i, a, j + 1, b2)]
                        rows[r][c] = rows[r][c] + (e if sign > 0 else -e)
        diffs[n] = GradedMatrix(comps[n + 1], comps[n], rows)
    # window bookkeeping: a truncated factor poisons low total degrees
    lo = None
    if X.known_lo is not None and not Y.is_zero_complex():
        lo = X.known_lo + Y.max_degree()
    if Y.known_lo is not None and not X.is_zero_complex():
        cand = Y.known_lo + X.max_degree()
        lo = cand if lo is None else max(lo, cand)
    return FreeComplex(ring, comps, diffs, known_lo=lo, check=False)


def hom_complex(X: FreeComplex, Y: FreeComplex) -> FreeComplex:
    """Hom(X, Y): component n holds maps X^i -> Y^{i+n}."""
    ring = X.ring
    gens: Dict[int, List[Tuple[int, int, int]]] = {}
    for i in X.support():
        for j in Y.support():
            n = j - i
            for a in range(X.component(i).rank):
                for b in range(Y.component(j).rank):
                    gens.setdefault(n, []).append((i, a, b))
    comps = {}
    for n, lst in gens.items():
        lst.sort()
        degs = [
            Y.component(i + n).degrees[b] - X.component(i).degrees[a]
            for (i, a, b) in lst
        ]
        comps[n] = GradedFreeModule(ring, degs)
    index = {
        n: {key: t for t, key in enumerate(lst)} for n, lst in gens.items()
    }
    diffs = {}
    z = ring.zero()
    for n in sorted(gens):
        if n + 1 not in gens:
            continue
        src_list = gens[n]
        tgt_list = gens[n + 1]
        rows = [[z] * len(src_list) for _ in tgt_list]
        sign = -1 if n % 2 else 1
        for c, (i, a, b) in enumerate(src_list):
            # post-compose with d_Y: lands in maps X^i -> Y^{i+n+1}
            dY = Y.differentials.get(i + n)
            if dY is not None:
                for b2 in range(dY.target.rank):
                    e = dY.entries[b2][b]
                    if e:
                        r = index[n + 1].get((i, a, b2))
                        if r is not None:
                            rows[r][c] = rows[r][c] + e
            # pre-compose with d_X: maps X^{i-1} -> Y^{i+n}, sign -(-1)^n
            dX = X.differentials.get(i - 1)
            if dX is not None:
                for a2 in range(dX.source.rank):
                    e = dX.entries[a][a2]
                    if e:
                        r = index[n + 1].get((i - 1, a2, b))
                        if r is not None:
                            term = e if sign < 0 else -e
                            rows[r][c] = rows[r][c] + term
        diffs[n] = GradedMatrix(comps[n + 1], comps[n], rows)
    # a truncated X (missing low components) corrupts high Hom degrees,
    # a truncated Y corrupts low ones
    hi = None
    if X.known_lo is not None and not Y.is_zero_complex():
        hi = Y.min_degree() - X.known_lo
    lo = None
    if Y.known_lo is not None and not X.is_zero_complex():
        lo = Y.known_lo - X.min_degree()
    return FreeComplex(ring, comps, diffs, known_lo=lo, known_hi=hi, check=False)


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
    return FreeComplex(
        ring, out_comps, out_diffs, C.known_lo, C.known_hi, check=False
    )


# ---------- cohomology ----------


@dataclass
class CohomologyData:
    degree: int
    module: GradedModule
    representatives: List[List[Poly]]
    generator_degrees: Tuple[int, ...]

    def is_zero(self) -> bool:
        return len(self.generator_degrees) == 0


def _as_presented(C) -> "PresentedComplex":
    """A presented complex as is; a free complex as the presented complex
    without relations, built once and cached on it."""
    if isinstance(C, PresentedComplex):
        return C
    if C._presented is None:
        C._presented = PresentedComplex(
            C.ring, C.components, C.differentials, {}, C.known_lo, C.known_hi
        )
    return C._presented


def cohomology_data(C: FreeComplex, i: int) -> CohomologyData:
    """H^i of a free complex: a presented complex without relations."""
    return _cohomology(_as_presented(C), i)


class CohomologyProfile:
    """Per-degree cohomology of a complex within its certified window."""

    def __init__(self, C: FreeComplex, window: Optional[Tuple[int, int]] = None):
        self.complex = C
        lo, hi = C.certified_cohomology_range()
        degs = C.support()
        if not degs:
            self.range = (0, -1)
        else:
            w_lo = degs[0] - 1 if lo is None else max(lo, degs[0] - 1)
            w_hi = degs[-1] + 1 if hi is None else min(hi, degs[-1] + 1)
            if window is not None:
                w_lo = max(w_lo, window[0])
                w_hi = min(w_hi, window[1])
            self.range = (w_lo, w_hi)
        self.modules: Dict[int, CohomologyData] = {}
        for i in range(self.range[0], self.range[1] + 1):
            data = cohomology_data(C, i)
            if not data.is_zero():
                self.modules[i] = data

    def nonzero_degrees(self) -> List[int]:
        return sorted(self.modules)

    def sup(self) -> Optional[int]:
        ds = self.nonzero_degrees()
        return ds[-1] if ds else None

    def inf(self) -> Optional[int]:
        ds = self.nonzero_degrees()
        return ds[0] if ds else None

    def amp(self) -> Optional[int]:
        ds = self.nonzero_degrees()
        return ds[-1] - ds[0] if ds else None

    def is_acyclic(self) -> bool:
        return not self.modules

    def module(self, i: int) -> Optional[CohomologyData]:
        return self.modules.get(i)

    def summary(self) -> dict:
        return {
            "range": list(self.range),
            "cohomology": {
                str(i): list(d.generator_degrees) for i, d in sorted(self.modules.items())
            },
        }


def cohomology_profile(C: FreeComplex, window: Optional[Tuple[int, int]] = None) -> CohomologyProfile:
    return CohomologyProfile(C, window)


# ---------- minimal free resolutions ----------


@dataclass
class ResolutionCertificate:
    complex: FreeComplex
    terminated: bool
    cutoff: Optional[int]
    betti: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    def length(self) -> Optional[int]:
        if not self.terminated:
            return None
        s = self.complex.support()
        return -s[0] if s else None

    def to_json(self) -> dict:
        return {
            "terminated": self.terminated,
            "cutoff": self.cutoff,
            "betti": {str(i): list(t) for i, t in sorted(self.betti.items())},
        }


def minimal_free_resolution_module(M: GradedModule, cutoff: int) -> ResolutionCertificate:
    """Iterated-syzygy minimal resolution of a module, placed in degrees <= 0."""
    ring = M.ring
    mp = M.minimal()
    if mp.rank == 0:
        empty = FreeComplex(ring, {}, {}, check=False)
        return ResolutionCertificate(empty, True, cutoff)
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
    return ResolutionCertificate(cplx, terminated, cutoff, betti)


def minimal_free_resolution(obj, cutoff: int = 8) -> ResolutionCertificate:
    """Minimal complex of frees quasi-isomorphic to the input.

    For a module: iterated syzygies (degrees <= 0), stopping at the cutoff.
    For a bounded free complex: pruning, which is exact and always terminates;
    a truncated complex keeps its window and the certificate reflects whether
    the resolution bottomed out strictly inside it.
    """
    if isinstance(obj, GradedModule):
        return minimal_free_resolution_module(obj, cutoff)
    if isinstance(obj, FreeComplex):
        pruned = prune_complex(obj)
        betti = {
            i: tuple(sorted(pruned.component(i).degrees)) for i in pruned.support()
        }
        if pruned.known_lo is None:
            return ResolutionCertificate(pruned, True, cutoff, betti)
        s = pruned.support()
        terminated = bool(s) and s[0] >= pruned.known_lo + 2 or not s
        return ResolutionCertificate(pruned, terminated, cutoff, betti)
    raise TypeError("expected GradedModule or FreeComplex, got %r" % type(obj))


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


class PresentedComplex(_Windowed):
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


def _columns_in_image(K: GradedMatrix, B: GradedMatrix) -> bool:
    """True when every column of K lies in the submodule generated by the
    columns of B.  A homogeneous vector of degree d lies in a graded
    submodule exactly when it lies in its degree-d piece, which the
    standard-monomial multiples of B's columns of degree <= d span over k."""
    ring = K.ring
    by_degree: Dict[int, List[int]] = {}
    for j, d in enumerate(K.source.degrees):
        by_degree.setdefault(d, []).append(j)
    one = ring.ambient.mono_one()
    b_cols = B.columns()
    for d in sorted(by_degree):
        span = _Span(ring.field)
        for mono, c in B.source.basis_in_degree(d):
            span.insert(monomial_multiple(ring, b_cols[c], mono))
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
    if K is None or _columns_in_image(
        K, _hstack(K.target, [P.diffs.get(i - 1), P.rels.get(i)])
    ):
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


# ---------- Ext and Tor tables ----------


def _resolve_first_argument(M, depth: int) -> FreeComplex:
    if isinstance(M, GradedModule):
        return minimal_free_resolution_module(M, cutoff=depth + 2).complex
    if isinstance(M, FreeComplex):
        return M
    raise TypeError("expected GradedModule or FreeComplex, got %r" % type(M))


def _window_table(C, what: str, degree_range: Tuple[int, int], sign: int):
    """{n: H^{sign*n}(C)} for n in the inclusive range, each degree checked
    against the certified window of C."""
    P = _as_presented(C)
    lo, hi = degree_range
    out: Dict[int, CohomologyData] = {}
    for n in range(lo, hi + 1):
        if not P._trust(sign * n):
            raise ValueError(
                "%s degree %d outside certified window: cutoff insufficient" % (what, n)
            )
        out[n] = P.cohomology(sign * n)
    return out


def ext_table(M, N, degree_range: Tuple[int, int]) -> Dict[int, CohomologyData]:
    """Ext^n(M, N) for n in the inclusive range, as minimally presented modules.

    The first argument is replaced by a free resolution; a module second
    argument is used directly (Hom into the presented module), a complex
    second argument goes through the Hom totalization with window tracking.
    """
    FM = _resolve_first_argument(M, degree_range[1])
    if isinstance(N, GradedModule):
        H = hom_free_into_module(FM, N)
    elif isinstance(N, FreeComplex):
        H = hom_complex(FM, N)
    else:
        raise TypeError("second argument must be GradedModule or FreeComplex")
    return _window_table(H, "Ext", degree_range, 1)


def tor_table(M, N, degree_range: Tuple[int, int]) -> Dict[int, CohomologyData]:
    """Tor_n(M, N) = H^{-n} of the derived tensor, for n in the range."""
    FM = _resolve_first_argument(M, degree_range[1])
    if isinstance(N, GradedModule):
        T = tensor_free_with_module(FM, N)
    elif isinstance(N, FreeComplex):
        T = tensor_complex(FM, N)
    else:
        raise TypeError("second argument must be GradedModule or FreeComplex")
    return _window_table(T, "Tor", degree_range, -1)
