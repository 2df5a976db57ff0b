"""Finitely presented graded modules: cokernels of homogeneous matrices.

minimal_presentation prunes a presentation until every relation entry lies in
the irrelevant maximal ideal and the relation columns are irredundant; by
graded Nakayama the surviving generators are a minimal generating set.
It is reached through GradedModule.minimal(): by Hom and tensor into a
module, by each step of a minimal free resolution, and when a cohomology
group is read as a module.  The minimal generators of a cohomology group
itself come from the degreewise count of complexes.py, with no
presentation.

Unit entries go first, by cancel_units: the one Gaussian-cancellation loop
of the program.  A presentation is its one-differential case; prune_complex
in complexes.py runs it over every differential of a free complex.

Irredundancy is linear algebra over k, one internal degree at a time.  A
homogeneous column of degree d lies in the submodule generated by others
exactly when its k-vector lies in the span of the degree-d multiples of the
others of degree <= d: standard monomials times the lower columns, scalars
times the columns of degree d.  So the columns are taken in ascending degree;
in degree d the span of the multiples of the columns kept so far is built,
and the degree-d columns are visited from the highest index down, each kept
exactly when it is independent of the span, which it then joins.  The span
is freemod's _Span, the one k-linear elimination routine of the program; it
also computes every degreewise rank.

This keeps the same columns as the rule "in ascending (degree, index) order,
drop a column when the still-live others of degree <= its own generate it".
A dropped lower column lies in the span of the kept ones, so both rules see
the same span from below.  Within one degree that rule is reverse-delete on
the quotient by that span, and on a matroid reverse-delete keeps the basis
that greedy insertion keeps when it visits the elements in reverse order.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .poly import Poly
from .freemod import Column, GradedFreeModule, GradedMatrix, _Span, monomial_multiple
from .ring import GradedRing


class MinimalPresentation:
    """Result of minimizing a presentation.

    survivors: indices of the original generators that remain, in order.
    """

    def __init__(self, matrix: GradedMatrix, survivors: List[int]):
        self.matrix = matrix
        self.survivors = survivors

    @property
    def generator_degrees(self) -> Tuple[int, ...]:
        return self.matrix.target.degrees

    @property
    def rank(self) -> int:
        return self.matrix.target.rank

    def is_zero(self) -> bool:
        return self.rank == 0


def cancel_units(
    ring: GradedRing, diffs: Dict[int, List[Column]], alive: Dict[int, List[int]]
) -> None:
    """Cancel every unit entry of a chain of differentials, in place.

    diffs[i] holds the working sparse columns of d^i: C^i -> C^{i+1}, one
    per generator of C^i, keyed by generators of C^{i+1}; alive[i] lists
    the generators of C^i still present, in order, and every index keeps
    its original meaning while the work runs.  A unit entry u = d^i[r, c]
    splits off a contractible pair: generator c of C^i and generator r of
    C^{i+1} leave alive, every other column of d^i first subtracts (its
    row-r entry / u) times column c, and row c leaves d^{i-1}.  The result
    is homotopy equivalent to the input and has no unit entry.

    Differentials are taken from the lowest.  Within d^i the pivot is the
    first alive column holding a unit entry, at its smallest row, and the
    search resumes at that column after each cancellation.  One pass per
    differential is enough.  A column left of the pivot has no unit entry,
    and clearing row r gives it none: a new degree-0 entry would need a
    unit factor in row r.  And a cancellation only deletes entries of the
    differential below (row c of d^{i-1}, already free of units) and drops
    a column of the one above, so it never makes a unit elsewhere.
    """
    field = ring.field
    one = ring.ambient.mono_one()
    zero = ring.zero()
    for i in sorted(diffs):
        cols = diffs[i]
        live = alive[i]
        below = diffs.get(i - 1)
        start = 0
        while True:
            pivot = None
            for k in range(start, len(live)):
                pivot = min(
                    (r for r, e in cols[live[k]].items() if e.degree() == 0),
                    default=None,
                )
                if pivot is not None:
                    start = k
                    break
            if pivot is None:
                break
            c0 = live.pop(start)
            alive[i + 1].remove(pivot)
            colp = cols[c0]
            uinv = field.inv(colp[pivot].terms[one])
            # row pivot goes, so only the other rows of column c0 matter
            support = sorted(t for t in colp if t != pivot)
            for c in live:
                col = cols[c]
                f = col.pop(pivot, None)
                if f is None:
                    continue
                factor = f.scale(uinv)
                for t in support:
                    e = ring.normal_form(col.get(t, zero) - factor * colp[t])
                    if e:
                        col[t] = e
                    else:
                        col.pop(t, None)
            if below is not None:
                for c in alive[i - 1]:
                    below[c].pop(c0, None)


def minimal_presentation(M: GradedMatrix) -> MinimalPresentation:
    ring = M.ring
    if ring.is_zero_ring:
        empty = GradedFreeModule(ring, ())
        return MinimalPresentation(GradedMatrix.zero(empty, empty), [])
    tgt = M.target.degrees
    src = M.source.degrees
    # M is the one differential from its source (0) to its target (1)
    alive = {0: list(range(len(src))), 1: list(range(len(tgt)))}
    cols = [dict(col) for col in M.cols]
    cancel_units(ring, {0: cols}, alive)
    alive_cols, alive_rows = alive[0], alive[1]

    # assemble the pruned matrix, rows renumbered, and drop zero columns
    tgt_deg = [tgt[i] for i in alive_rows]
    target = GradedFreeModule(ring, tgt_deg)
    pos = {gen: k for k, gen in enumerate(alive_rows)}
    live: List[Column] = []
    col_deg: List[int] = []
    for j in alive_cols:
        if cols[j]:
            live.append({pos[i]: e for i, e in cols[j].items()})
            col_deg.append(src[j])
    kept = _irredundant_columns(target, live, col_deg)
    matrix = GradedMatrix.from_columns(
        target, [col_deg[t] for t in kept], [live[t] for t in kept]
    )
    return MinimalPresentation(matrix, alive_rows)


def _irredundant_columns(
    target: GradedFreeModule, cols: List[Column], col_deg: List[int]
) -> List[int]:
    """Indices of the columns kept as minimal relations, ascending (degree, index).

    Degree d sees the k-span of the degree-d multiples of the columns kept
    in lower degrees; its own columns are visited from the highest index
    down, and one is kept exactly when its vector lies outside the span,
    which it then joins.
    """
    ring = target.ring
    by_degree: Dict[int, List[int]] = {}
    for t, d in enumerate(col_deg):
        by_degree.setdefault(d, []).append(t)
    one = ring.ambient.mono_one()
    kept: List[int] = []
    for d in sorted(by_degree):
        span = _Span(ring.field)
        for u in kept:
            for mono in ring.standard_monomials(d - col_deg[u]):
                span.insert(monomial_multiple(ring, cols[u], mono))
        new = [
            t for t in reversed(by_degree[d])
            if span.insert(monomial_multiple(ring, cols[t], one))
        ]
        kept.extend(reversed(new))
    return kept


class GradedModule:
    """Cokernel of a homogeneous presentation matrix."""

    def __init__(self, presentation: GradedMatrix):
        presentation.check_homogeneous()
        self.presentation = presentation
        self.ring = presentation.ring
        self._minimal: MinimalPresentation | None = None

    @staticmethod
    def free(ring: GradedRing, degrees: Sequence[int]) -> "GradedModule":
        target = GradedFreeModule(ring, degrees)
        source = GradedFreeModule(ring, ())
        return GradedModule(GradedMatrix.zero(target, source))

    @staticmethod
    def cyclic(ring: GradedRing, relations: Sequence[Poly]) -> "GradedModule":
        """R/(relations) as a module, generator in degree 0."""
        target = GradedFreeModule(ring, (0,))
        rels = [ring.normal_form(p) for p in relations]
        rels = [p for p in rels if p]
        cols = [{0: p} for p in rels]
        degs = [p.degree() for p in rels]
        return GradedModule(GradedMatrix.from_columns(target, degs, cols))

    def minimal(self) -> MinimalPresentation:
        if self._minimal is None:
            self._minimal = minimal_presentation(self.presentation)
        return self._minimal

    def minimal_generator_degrees(self) -> Tuple[int, ...]:
        return self.minimal().generator_degrees

    def is_zero(self) -> bool:
        return self.minimal().rank == 0

    def hilbert_function(self, t: int) -> int:
        return self.presentation.coker_dim_in_degree(t)

    def __repr__(self):
        return "GradedModule(gens %s)" % (list(self.minimal_generator_degrees()),)
