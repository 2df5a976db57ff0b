"""Finitely presented graded modules: cokernels of homogeneous matrices.

minimal_presentation prunes a presentation until every relation entry lies in
the irrelevant maximal ideal and the relation columns are irredundant; by
graded Nakayama the surviving generators are a minimal generating set.

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
    expressions: original generator index -> {surviving index -> Poly}
        writing each original generator in terms of the survivors.
    """

    def __init__(self, matrix: GradedMatrix, survivors: List[int], expressions: Dict[int, Dict[int, Poly]]):
        self.matrix = matrix
        self.survivors = survivors
        self.expressions = expressions

    @property
    def generator_degrees(self) -> Tuple[int, ...]:
        return self.matrix.target.degrees

    @property
    def rank(self) -> int:
        return self.matrix.target.rank

    def is_zero(self) -> bool:
        return self.rank == 0


def minimal_presentation(M: GradedMatrix) -> MinimalPresentation:
    ring = M.ring
    field = ring.field
    if ring.is_zero_ring:
        empty = GradedFreeModule(ring, ())
        return MinimalPresentation(GradedMatrix.zero(empty, empty), [], {})
    tgt = list(M.target.degrees)
    src = list(M.source.degrees)
    # working copies of the sparse columns; a dropped row leaves every one
    cols = [dict(col) for col in M.cols]
    alive_rows = list(range(len(tgt)))
    alive_cols = list(range(len(src)))
    # original generator -> expression in current generators
    expr: Dict[int, Dict[int, Poly]] = {
        o: {o: ring.one()} for o in range(len(tgt))
    }

    zero = ring.zero()
    start = 0
    while True:
        # The pivot is the first unit entry, column by column from start
        # and by ascending row within a column.  A column left of the pivot
        # has no unit entry, and clearing row pi gives it none: a new
        # degree-0 entry needs a unit factor there.
        pivot = None
        for k in range(start, len(alive_cols)):
            j = alive_cols[k]
            i = min((i for i, e in cols[j].items() if e.degree() == 0), default=None)
            if i is not None:
                pivot = (i, j)
                start = k
                break
        if pivot is None:
            break
        pi, pj = pivot
        colp = cols[pj]
        c = colp[pi].terms[ring.ambient.mono_one()]
        cinv = field.inv(c)
        # row pi is dropped below, so only the other rows of column pj matter
        support = sorted(t for t in colp if t != pi)
        # generator pi = -1/c * sum_{t != pi} colp[t] * g_t
        combo = {t: colp[t].scale(field.neg(cinv)) for t in support}
        # clear row pi from the other columns: col_j' -= (e[pi][j']/c) col_pj
        for j2 in alive_cols:
            if j2 == pj:
                continue
            col = cols[j2]
            f = col.pop(pi, None)
            if f is None:
                continue
            factor = f.scale(cinv)
            for t in support:
                e = ring.normal_form(col.get(t, zero) - factor * colp[t])
                if e:
                    col[t] = e
                else:
                    col.pop(t, None)
        # rewrite stored expressions of the original generators
        for o, d in expr.items():
            p = d.pop(pi, None)
            if p:
                for t, coef in combo.items():
                    add = ring.normal_form(p * coef)
                    if t in d:
                        s = ring.normal_form(d[t] + add)
                        if s:
                            d[t] = s
                        else:
                            del d[t]
                    elif add:
                        d[t] = add
        alive_rows.remove(pi)
        del alive_cols[start]

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
    # re-index expressions to positions within the survivor list
    expressions = {
        o: {pos[t]: p for t, p in d.items()} for o, d in expr.items()
    }
    return MinimalPresentation(matrix, alive_rows, expressions)


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
