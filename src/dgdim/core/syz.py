"""Module Groebner bases and syzygies over graded quotient rings.

Vectors in a graded free module P^r are sparse dicts (monomial, position) ->
coefficient, ordered by twisted degree, then graded reverse lex on the
monomial, then position.  Buchberger runs over the ambient polynomial ring;
syzygies of a matrix over R = P/J come from the classical augmentation trick
(adjoin J-multiples of the target basis and project the ambient syzygies).

Buchberger's algorithm prunes its pairs with the Gebauer-Moeller criteria
(Gebauer & Moeller, J. Symbolic Comput. 6, 1988).  A pair (i, j) of basis
elements at one position stands for the leading relation
tau_ij = (lcm_ij / lm_i) e_i - (lcm_ij / lm_j) e_j.  When g_n joins the
basis, a queued pair (i, j) is dropped if lm_n divides lcm_ij and lcm_ij
differs from lcm_in and lcm_jn (criterion B_k), and a new pair (i, n) is
dropped if another new pair (k, n) has an lcm properly dividing lcm_in
(criterion M) or the same lcm with k < i (criterion F).  In each case the
dropped tau is a monomial combination of the tau of pairs that stay, so
the kept pairs' tau still generate the syzygies of the leading terms.

Every reduced pair contributes its standard-representation relation,
whose leading term is its tau.  By Schreyer's theorem (Eisenbud,
Commutative Algebra, Thm 15.10) relations lifting generators of the
leading-term syzygies generate the full syzygy module of the final basis.
The original columns are the first basis elements, so translating these
relations through the reduction histories generates the syzygies of the
original columns.

Histories are kept only on the first `tracked` columns, the ones a reader
projects to; every other column starts with an empty history.  Projecting
a combination of columns onto the tracked ones is linear, so it commutes
with translation through the histories: each recorded syzygy is the
tracked block of the full one, and a relation whose tracked block is zero
is not recorded.  SyzygyEngine tracks the columns of M, since
syzygy_matrix reads no row of the J-multiples; groebner_basis tracks
none, since it reads only the basis vectors.  The histories are read only
while relations are translated, so the build drops them when it ends,
with the order's monomial memo.  A cached engine then keeps what contains
reduces against (the basis vectors and their leads), the recorded
syzygies that syzygy_matrix reads, and M's source, not M.

GradedRing computes the reduced Groebner basis of its ideal J here too, as
the rank-one case: one position at twist 0, where the order is exactly
PolyRing.mono_key.  No product criterion is applied, in rank one either.
For vectors it is false: the S-vector of x e_1 + y e_2 and y e_1 is
y^2 e_2, which nothing reduces.  In rank one it is true, but a dropped pair
would leave its relation, the Koszul syzygy g_j e_i - g_i e_j, unrecorded,
so applying it would take a second, rank-one code path; the ideals of ring
relations are small, and their extra pairs cost little.
"""
from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import Poly, PolyRing
from .freemod import Column, GradedMatrix

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


def _column_to_vec(col: Column) -> Vec:
    vec: Vec = {}
    for pos, p in col.items():
        for m, c in p.terms.items():
            vec[(m, pos)] = c
    return vec


class ModuleGB:
    """Groebner basis of a submodule of P^r with history and syzygy data.

    Histories and syzygies are kept on the first `tracked` columns only."""

    def __init__(
        self, ambient: PolyRing, twists: Sequence[int], columns: Sequence[Column], tracked: int
    ):
        self.ambient = ambient
        self.field = ambient.field
        self.twists = tuple(twists)
        self.order = _ModuleOrder(ambient, twists)
        self.tracked = tracked
        # gb entries: (vector, history dict colindex -> Poly), the history
        # None once the build is done
        self.gb: List[Tuple[Vec, Optional[Dict[int, Poly]]]] = []
        self.syzygies: List[Dict[int, Poly]] = []
        self._build([_column_to_vec(c) for c in columns])

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
        leads = self._leads
        while work:
            term = self.order.leading(work)
            mono, pos = term
            coeff = work[term]
            for k, (lm, lp) in enumerate(leads):
                if lp == pos and ambient.mono_divides(lm, mono):
                    break
            else:
                del work[term]
                remainder[term] = coeff
                continue
            g = self.gb[k][0]
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
        tracked = self.tracked
        # leading terms are stable once an element joins the basis, so they
        # are computed once and shared with _reduce via self._leads
        leads: List[VecTerm] = []
        self._leads = leads
        for j, vec in enumerate(vectors):
            if vec:
                hist = {j: ambient.one()} if j < tracked else {}
                self.gb.append((vec, hist))
                leads.append(self.order.leading(vec))
            elif j < tracked:
                # zero column: elementary syzygy
                self.syzygies.append({j: ambient.one()})

        # pairs (i, j), i < j, at one position, reduced in ascending lcm
        heap: List[tuple] = []
        live: Dict[int, Dict[Tuple[int, int], tuple]] = {}
        at_pos: Dict[int, List[int]] = {}
        divides = ambient.mono_divides

        def add_element(n: int) -> None:
            mn, pos = leads[n]
            mates = at_pos.setdefault(pos, [])
            queue = live.setdefault(pos, {})
            lcms = {i: ambient.mono_lcm(leads[i][0], mn) for i in mates}
            # B_k: lm_n divides lcm_ij, which differs from lcm_in and lcm_jn
            for (i, j), lcm in list(queue.items()):
                if divides(mn, lcm) and lcms[i] != lcm and lcms[j] != lcm:
                    del queue[(i, j)]
            # M and F: of the new pairs keep one per minimal lcm, the first
            for i in mates:
                li = lcms[i]
                if any(
                    divides(lcms[k], li) and (lcms[k] != li or k < i)
                    for k in mates
                    if k != i
                ):
                    continue
                key = (ambient.mono_degree(li) + self.twists[pos], ambient.mono_key(li), i, n)
                heapq.heappush(heap, (key, i, n, li))
                queue[(i, n)] = li
            mates.append(n)

        for n in range(len(self.gb)):
            add_element(n)
        while heap:
            _, i, j, lcm = heapq.heappop(heap)
            (mi, pos) = leads[i]
            (mj, _) = leads[j]
            if live[pos].pop((i, j), None) is None:
                continue
            gi, _ = self.gb[i]
            gj, _ = self.gb[j]
            ci = gi[(mi, pos)]
            cj = gj[(mj, pos)]
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
                add_element(new_index)
            self._record_syzygy(rel)
        # the histories and the order memo served the build alone
        self.gb = [(vec, None) for vec, _ in self.gb]
        self.order._mono_cache.clear()

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


class SyzygyEngine:
    """Syzygies and image membership for a matrix over a graded quotient
    ring R.

    Augments the columns with J-multiples of the target basis so that module
    computations over the ambient polynomial ring answer questions over R.
    """

    def __init__(self, M: GradedMatrix):
        self.ring = M.ring
        self.source = M.source
        aug_cols: List[Column] = list(M.cols)
        for g in self.ring.gb:
            aug_cols.extend({i: g} for i in range(M.target.rank))
        self.gbm = ModuleGB(self.ring.ambient, M.target.degrees, aug_cols, len(M.cols))
        self._syz: Optional[GradedMatrix] = None

    def syzygy_matrix(self) -> GradedMatrix:
        """Homogeneous generators of ker(M) over R: the first-block
        projections of the recorded syzygies, without zero or repeated
        columns, sorted by degree, then by the terms of the entries
        (Poly.terms_key) as a dense tuple over the source positions.
        Computed once.

        The sort key is the sparse ((-position, terms), ...) in ascending
        position, which orders columns exactly as the dense tuple does: a
        zero entry's terms () sort before any nonzero terms, so where two
        columns first differ, the one whose entry at the smaller position
        is nonzero is the larger in both keys."""
        if self._syz is not None:
            return self._syz
        nf = self.ring.normal_form
        src = self.source.degrees
        found = {}
        for syz in self.gbm.syzygies:
            col = {}
            for j in sorted(syz):
                p = nf(syz[j])
                if p:
                    col[j] = p
            if not col:
                continue
            key = tuple((-j, p.terms_key()) for j, p in col.items())
            if key not in found:
                lead = next(iter(col))
                found[key] = (col[lead].degree() + src[lead], col)
        order = sorted(found, key=lambda key: (found[key][0], key))
        self._syz = GradedMatrix.from_columns(
            self.source,
            [found[key][0] for key in order],
            [found[key][1] for key in order],
        )
        return self._syz

    def contains(self, col: Column) -> bool:
        """Whether the sparse column col lies in the image of M over R."""
        nf = self.ring.normal_form
        remainder, _ = self.gbm._reduce(
            _column_to_vec({i: nf(p) for i, p in col.items()})
        )
        return not remainder


_syz_cache: dict = {}


def _matrix_key(M: GradedMatrix):
    """Equal for matrices with equal entries; an equality key, not an order."""
    return (
        M.ring.key(),
        M.target.degrees,
        M.source.degrees,
        tuple(
            tuple(sorted((i, e.terms_key()) for i, e in col.items()))
            for col in M.cols
        ),
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
