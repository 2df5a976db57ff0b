"""Module Groebner bases and syzygies over graded quotient rings.

Vectors in a graded free module P^r are sparse dicts (monomial, position) ->
coefficient, ordered by twisted degree, then graded reverse lex on the
monomial, then position.  Buchberger runs over the ambient polynomial ring;
syzygies of a matrix over R = P/J come from the classical augmentation trick
(adjoin J-multiples of the target basis and project the ambient syzygies).

Every processed S-pair contributes its standard-representation relation, so
the collected relations generate the full syzygy module of the final basis;
translation through the reduction history and the re-expression relations
e_j - sum(v_k h_k) then generate the syzygies of the original columns.
"""
from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import Poly, PolyRing
from .freemod import GradedMatrix

VecTerm = Tuple[tuple, int]  # (monomial, position)
Vec = Dict[VecTerm, object]


class _ModuleOrder:
    def __init__(self, ambient: PolyRing, twists: Sequence[int]):
        self.ambient = ambient
        self.twists = tuple(twists)
        self._mono_cache: Dict[tuple, tuple] = {}

    def term_key(self, term: VecTerm):
        mono, pos = term
        cached = self._mono_cache.get(mono)
        if cached is None:
            cached = (self.ambient.mono_degree(mono), self.ambient.mono_key(mono))
            self._mono_cache[mono] = cached
        return (cached[0] + self.twists[pos], cached[1], -pos)

    def leading(self, vec: Vec) -> VecTerm:
        return max(vec, key=self.term_key)


def _vec_add_scaled(field, vec: Vec, other: Vec, mono, coeff, ambient) -> None:
    """vec += coeff * mono * other, in place."""
    for (m, p), c in other.items():
        key = (ambient.mono_mul(m, mono), p)
        val = field.mul(c, coeff)
        if key in vec:
            s = field.add(vec[key], val)
            if field.is_zero(s):
                del vec[key]
            else:
                vec[key] = s
        else:
            vec[key] = val


def _columns_to_vec(ambient: PolyRing, col: Sequence[Poly]) -> Vec:
    vec: Vec = {}
    for pos, p in enumerate(col):
        for m, c in p.terms.items():
            vec[(m, pos)] = c
    return vec


def _vec_to_columns(ambient: PolyRing, vec: Vec, rank: int) -> List[Poly]:
    cols: List[dict] = [dict() for _ in range(rank)]
    for (m, p), c in vec.items():
        cols[p][m] = c
    return [Poly(ambient, t) for t in cols]


class ModuleGB:
    """Groebner basis of a submodule of P^r with history and syzygy data."""

    def __init__(self, ambient: PolyRing, twists: Sequence[int], columns: List[List[Poly]]):
        self.ambient = ambient
        self.field = ambient.field
        self.twists = tuple(twists)
        self.ncols = len(columns)
        self.order = _ModuleOrder(ambient, twists)
        # gb entries: (vector, history dict colindex -> Poly)
        self.gb: List[Tuple[Vec, Dict[int, Poly]]] = []
        self.syzygies: List[Dict[int, Poly]] = []
        self._build([_columns_to_vec(ambient, c) for c in columns])

    # -- reduction ---------------------------------------------------------

    def _reduce(self, vec: Vec) -> Tuple[Vec, Dict[int, Tuple]]:
        """Full reduction; returns (remainder, quotients on gb indices).

        Quotients are accumulated as dicts monomial -> coeff per gb index.
        """
        field = self.field
        ambient = self.ambient
        work = dict(vec)
        remainder: Vec = {}
        quotients: Dict[int, Dict[tuple, object]] = {}
        leads = [(lt, g) for lt, (g, _) in zip(self._leads, self.gb)]
        while work:
            term = self.order.leading(work)
            mono, pos = term
            coeff = work[term]
            hit = None
            for k, ((lm, lp), g) in enumerate(leads):
                if lp == pos and ambient.mono_divides(lm, mono):
                    hit = (k, lm, g)
                    break
            if hit is None:
                del work[term]
                remainder[term] = coeff
                continue
            k, lm, g = hit
            lc = g[(lm, pos)]
            qmono = ambient.mono_div(mono, lm)
            qcoeff = field.div(coeff, lc)
            qd = quotients.setdefault(k, {})
            qd[qmono] = field.add(qd.get(qmono, field.zero()), qcoeff)
            _vec_add_scaled(field, work, g, qmono, field.neg(qcoeff), ambient)
        quot_polys = {
            k: Poly(self.ambient, {m: c for m, c in d.items() if not self.field.is_zero(c)})
            for k, d in quotients.items()
        }
        return remainder, quot_polys

    # -- Buchberger with syzygy collection ----------------------------------

    def _build(self, vectors: List[Vec]) -> None:
        field = self.field
        ambient = self.ambient
        # leading terms are stable once an element joins the basis, so they
        # are computed once and shared with _reduce via self._leads
        leads: List[VecTerm] = []
        self._leads = leads
        for j, vec in enumerate(vectors):
            if vec:
                hist = {j: ambient.one()}
                self.gb.append((vec, hist))
                leads.append(self.order.leading(vec))
            else:
                # zero column: elementary syzygy
                self.syzygies.append({j: ambient.one()})

        heap: List[tuple] = []

        def push_pair(i: int, j: int) -> None:
            (mi, pos) = leads[i]
            (mj, _) = leads[j]
            lcm = ambient.mono_lcm(mi, mj)
            key = (
                ambient.mono_degree(lcm) + self.twists[pos],
                ambient.mono_key(lcm),
                i,
                j,
            )
            heapq.heappush(heap, (key, i, j))

        for j in range(len(self.gb)):
            for i in range(j):
                if leads[i][1] == leads[j][1]:
                    push_pair(i, j)
        while heap:
            _, i, j = heapq.heappop(heap)
            gi, _ = self.gb[i]
            gj, _ = self.gb[j]
            (mi, pos) = leads[i]
            (mj, _) = leads[j]
            ci = gi[(mi, pos)]
            cj = gj[(mj, pos)]
            lcm = ambient.mono_lcm(mi, mj)
            ui_mono = ambient.mono_div(lcm, mi)
            uj_mono = ambient.mono_div(lcm, mj)
            ui_coeff = field.inv(ci)
            uj_coeff = field.inv(cj)
            spoly: Vec = {}
            _vec_add_scaled(field, spoly, gi, ui_mono, ui_coeff, ambient)
            _vec_add_scaled(field, spoly, gj, uj_mono, field.neg(uj_coeff), ambient)
            remainder, quots = self._reduce(spoly)
            # Schreyer relation on gb indices: ui*ei - uj*ej - quots - [new]
            rel: Dict[int, Poly] = {}

            def rel_add(idx: int, p: Poly):
                if idx in rel:
                    rel[idx] = rel[idx] + p
                else:
                    rel[idx] = p

            rel_add(i, Poly(ambient, {ui_mono: ui_coeff}))
            rel_add(j, Poly(ambient, {uj_mono: field.neg(uj_coeff)}))
            for k, q in quots.items():
                if q:
                    rel_add(k, -q)
            if remainder:
                new_index = len(self.gb)
                hist = self._history_of(rel)
                # remainder = spoly - sum quots*g  => history bookkeeping
                self.gb.append((remainder, hist))
                leads.append(self.order.leading(remainder))
                rel_add(new_index, -self.ambient.one())
                for t in range(new_index):
                    if leads[t][1] == leads[new_index][1]:
                        push_pair(t, new_index)
            self._record_syzygy(rel)

    def _history_of(self, rel: Dict[int, Poly]) -> Dict[int, Poly]:
        """Translate a combination of gb elements into original-column terms.

        rel maps gb index -> Poly; result maps column index -> Poly for the
        vector sum(rel_k * g_k) expressed through the histories.
        """
        out: Dict[int, Poly] = {}
        for k, p in rel.items():
            if not p:
                continue
            for col, h in self.gb[k][1].items():
                contrib = p * h
                if col in out:
                    out[col] = out[col] + contrib
                else:
                    out[col] = contrib
        return {c: v for c, v in out.items() if v}

    def _record_syzygy(self, rel: Dict[int, Poly]) -> None:
        translated = self._history_of(rel)
        if translated:
            self.syzygies.append(translated)
        # an empty translation is the zero syzygy: skip

    # -- public operations ---------------------------------------------------

    def reduce_vector(self, col: Sequence[Poly]) -> Tuple[List[Poly], Dict[int, Poly]]:
        """Normal form of a column vector plus its expression data.

        Returns (remainder columns, quotients on ORIGINAL column indices).
        Positions index the target basis, so vectors have len(twists) rows.
        """
        vec = _columns_to_vec(self.ambient, list(col))
        remainder, quots = self._reduce(vec)
        rel = {k: q for k, q in quots.items() if q}
        expressed = self._history_of(rel)
        cols = _vec_to_columns(self.ambient, remainder, len(self.twists))
        return cols, expressed


class SyzygyEngine:
    """Syzygies and division for a matrix over a graded quotient ring R.

    Augments the columns with J-multiples of the target basis so that module
    computations over the ambient polynomial ring answer questions over R.
    """

    def __init__(self, M: GradedMatrix):
        self.M = M
        self.ring = M.ring
        ambient = self.ring.ambient
        self.ambient = ambient
        r = M.target.rank
        cols = M.columns()
        twists = list(M.target.degrees)
        aug_cols: List[List[Poly]] = list(cols)
        self.n_original = len(cols)
        for g in self.ring.gb:
            for i in range(r):
                col = [ambient.zero()] * r
                col[i] = g
                aug_cols.append(col)
        self.gbm = ModuleGB(ambient, twists, aug_cols)

    def syzygy_columns(self) -> List[List[Poly]]:
        """Homogeneous generators of ker(M) over R (first-block projections)."""
        R = self.ring
        out: List[List[Poly]] = []
        seen = set()
        for syz in self.gbm.syzygies:
            col = []
            for j in range(self.n_original):
                p = syz.get(j)
                col.append(R.normal_form(p) if p is not None else R.zero())
            if all(p.is_zero() for p in col):
                continue
            key = tuple(str(p) for p in col)
            if key in seen:
                continue
            seen.add(key)
            out.append(col)
        return out

    def syzygy_matrix(self) -> GradedMatrix:
        cols = self.syzygy_columns()
        degrees = []
        for col in cols:
            d = None
            for j, p in enumerate(col):
                if p:
                    d = p.degree() + self.M.source.degrees[j]
                    break
            degrees.append(d)
        order = sorted(
            range(len(cols)),
            key=lambda t: (degrees[t], tuple(str(p) for p in cols[t])),
        )
        cols = [cols[t] for t in order]
        degrees = [degrees[t] for t in order]
        return GradedMatrix.from_columns(self.M.source, degrees, cols)

    def divide(self, col: Sequence[Poly]) -> Optional[List[Poly]]:
        """Express col = M*q over R; returns q or None when not in the image."""
        remainder, expressed = self.gbm.reduce_vector(
            [self.ring.normal_form(p) for p in col]
        )
        if any(p for p in remainder):
            return None
        R = self.ring
        q = []
        for j in range(self.n_original):
            p = expressed.get(j)
            q.append(R.normal_form(p) if p is not None else R.zero())
        return q

    def contains(self, col: Sequence[Poly]) -> bool:
        return self.divide(col) is not None


_syz_cache: dict = {}


def _matrix_key(M: GradedMatrix):
    return (
        M.ring.key(),
        M.target.degrees,
        M.source.degrees,
        tuple(tuple(str(e) for e in row) for row in M.entries),
    )


def syzygy_engine(M: GradedMatrix) -> SyzygyEngine:
    key = _matrix_key(M)
    eng = _syz_cache.get(key)
    if eng is None:
        eng = SyzygyEngine(M)
        if len(_syz_cache) > 4096:
            _syz_cache.clear()
        _syz_cache[key] = eng
    return eng


def syzygy_matrix(M: GradedMatrix) -> GradedMatrix:
    """Matrix whose columns generate ker(M) as a graded submodule over R."""
    return syzygy_engine(M).syzygy_matrix()
