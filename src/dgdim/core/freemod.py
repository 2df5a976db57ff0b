"""Graded free modules and homogeneous matrices over a GradedRing.

A free module is a tuple of generator degrees: F = R(-d_1) + ... + R(-d_r),
the i-th generator sitting in internal degree d_i.  The degrees are stored
as given, without coercion.  They are ints: the scenario boundary checks
every degree, twist and position it reads (scenario._typed), and the
engine derives all others from those.  A GradedMatrix represents a
degree-zero map source -> target, column j giving the image of the j-th
source generator; entry (i, j) is homogeneous of degree src_deg(j) -
tgt_deg(i) (or zero).  The matrices of resolutions and of the underlying
complexes of DG-modules are mostly zero, so a GradedMatrix keeps only its
nonzero entries: one sparse column {row index: normal form} per source
generator, and every product, sum and elimination walks those entries alone.

Degreewise ranks, kernels and cokernel dimensions come from one exact
elimination routine, _Span: a sparse echelon basis into which the degree-t
multiples of the columns are inserted.  Its rows are keyed by pivot and a
vector is reduced in ascending key order, so an insert touches only the
rows whose pivots the vector meets, not every stored row.  A rank does not
depend on the basis or the order of insertion, so no dense field matrix is
built for it.  This linear algebra is the brute-force oracle backing the
Groebner-based module computations.

The same span gives the one count of minimal generators, by graded
Nakayama, one internal degree at a time: GradedMatrix.minimal_columns.
minimal_presentation reads its irredundant relations off it, and
complexes.py the minimal generators of each cohomology group.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .poly import Poly

if TYPE_CHECKING:
    from .ring import GradedRing

Column = Dict[int, Poly]  # row index -> nonzero normal-form entry


class GradedFreeModule:
    __slots__ = ("ring", "degrees", "rank")

    def __init__(self, ring: GradedRing, degrees: Sequence[int]):
        self.ring = ring
        self.degrees = tuple(degrees)
        self.rank = len(self.degrees)

    def basis_in_degree(self, t: int) -> List[Tuple[tuple, int]]:
        """[(monomial, generator index)] spanning the degree-t piece."""
        out = []
        for j, d in enumerate(self.degrees):
            for m in self.ring.standard_monomials(t - d):
                out.append((m, j))
        return out

    def dim_in_degree(self, t: int) -> int:
        return sum(self.ring.hilbert_function(t - d) for d in self.degrees)

    def __repr__(self):
        return "Free(%s)" % (list(self.degrees),)


class GradedMatrix:
    """Homogeneous matrix over a GradedRing, stored as sparse columns.

    cols[j] is the image of the j-th source generator: a dict {row index:
    entry} holding the nonzero entries only, each a normal form.  The
    dicts may be shared between matrices (complexes._cycles) and are never
    changed once the matrix is built.
    """

    __slots__ = ("ring", "target", "source", "cols")

    def __init__(
        self,
        target: GradedFreeModule,
        source: GradedFreeModule,
        cols: Sequence[Column],
        normalize: bool = True,
    ):
        self.ring = target.ring
        self.target = target
        self.source = source
        if len(cols) != source.rank:
            raise ValueError("column count != source rank")
        if normalize:
            nf = self.ring.normal_form
            rank = target.rank
            out = []
            for col in cols:
                kept = {}
                for i, e in col.items():
                    if not 0 <= i < rank:
                        raise ValueError("row %d outside the target" % i)
                    if e:
                        e = nf(e)
                        if e:
                            kept[i] = e
                out.append(kept)
            self.cols = tuple(out)
        else:
            self.cols = tuple(cols)

    def check_homogeneous(self) -> None:
        for j, col in enumerate(self.cols):
            for i, e in col.items():
                want = self.source.degrees[j] - self.target.degrees[i]
                if e.degree() != want:
                    raise ValueError(
                        "entry (%d,%d) has degree %s, expected %d"
                        % (i, j, e.degree(), want)
                    )

    @staticmethod
    def zero(target: GradedFreeModule, source: GradedFreeModule) -> "GradedMatrix":
        return GradedMatrix(target, source, [{} for _ in range(source.rank)], normalize=False)

    @staticmethod
    def identity(module: GradedFreeModule) -> "GradedMatrix":
        one = module.ring.one()
        cols = [{j: one} if one else {} for j in range(module.rank)]
        return GradedMatrix(module, module, cols, normalize=False)

    @staticmethod
    def from_columns(
        target: GradedFreeModule, col_degrees: Sequence[int], cols: Sequence[Column]
    ) -> "GradedMatrix":
        """The matrix with these sparse columns; every entry must already be
        a nonzero normal form, since it is taken as given."""
        source = GradedFreeModule(target.ring, col_degrees)
        return GradedMatrix(target, source, cols, normalize=False)

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self o other  (apply other first)."""
        if other.target.degrees != self.source.degrees:
            raise ValueError("composition shape mismatch")
        return GradedMatrix(
            self.target,
            other.source,
            [self.apply_to_vector(col) for col in other.cols],
            normalize=False,
        )

    def is_zero(self) -> bool:
        return not any(self.cols)

    def apply_to_vector(self, vec: Column) -> Column:
        """The image of the sparse source vector vec, as a sparse column."""
        acc: Column = {}
        for j, v in vec.items():
            for i, e in self.cols[j].items():
                p = e * v
                acc[i] = acc[i] + p if i in acc else p
        nf = self.ring.normal_form
        out: Column = {}
        for i, p in acc.items():
            p = nf(p)
            if p:
                out[i] = p
        return out

    # -- degreewise linear algebra ----------------------------------------

    def matrix_in_degree(self, t: int):
        """Field matrix of the degree-t piece, with its row/column bases.

        Returns (rows_basis, cols_basis, M) where M[r][c] is a field scalar.
        """
        f = self.ring.field
        rows_basis = self.target.basis_in_degree(t)
        cols_basis = self.source.basis_in_degree(t)
        row_index = {key: r for r, key in enumerate(rows_basis)}
        M = [[f.zero()] * len(cols_basis) for _ in rows_basis]
        for c, (mono, j) in enumerate(cols_basis):
            for key, coeff in monomial_multiple(self.ring, self.cols[j], mono).items():
                r = row_index.get(key)
                if r is None:
                    raise AssertionError("non-standard monomial in product")
                M[r][c] = coeff
        return rows_basis, cols_basis, M

    def rank_in_degree(self, t: int) -> int:
        """Rank of the degree-t piece: the degree-t multiples of the columns
        inserted into one sparse echelon basis."""
        return self._insert_multiples(_Span(self.ring.field), t, range(len(self.cols)))

    def _insert_multiples(self, span: "_Span", t: int, columns) -> int:
        """Insert the degree-t multiples of the given columns into span, a
        standard monomial times each; the number that were new to it."""
        ring = self.ring
        degs = self.source.degrees
        return sum(
            span.insert(monomial_multiple(ring, self.cols[j], mono))
            for j in columns
            for mono in ring.standard_monomials(t - degs[j])
        )

    def minimal_columns(
        self, blocks: Sequence["GradedMatrix"] = (), limit: Optional[int] = None
    ) -> List[int]:
        """Indices, ascending, of the columns whose classes minimally
        generate the module they generate modulo the submodule N that the
        columns of blocks (matrices into the same target) generate; the
        scan stops once limit are kept.

        By graded Nakayama these classes are a k-basis of H/mH, H that
        quotient and m the irrelevant ideal.  So, one degree d at a time, a
        degree-d column is kept exactly when it lies outside the k-span of
        N_d, of the degree-d multiples of the columns kept below d, and of
        the degree-d columns kept before it in the order given.  The
        degree-d piece of a graded submodule is spanned by the
        standard-monomial multiples of its generators of degree <= d, and
        a column dropped below d lies, by induction, in the span of N and
        the columns kept below it; so one _Span per degree holds all three.
        """
        by_degree: Dict[int, List[int]] = {}
        for j, d in enumerate(self.source.degrees):
            by_degree.setdefault(d, []).append(j)
        kept: List[int] = []
        for d in sorted(by_degree):
            span = _Span(self.ring.field)
            for B in blocks:
                B._insert_multiples(span, d, range(len(B.cols)))
            self._insert_multiples(span, d, kept)
            for j in by_degree[d]:
                if self._insert_multiples(span, d, (j,)):
                    kept.append(j)
                    if len(kept) == limit:
                        return sorted(kept)
        return sorted(kept)

    def kernel_dim_in_degree(self, t: int) -> int:
        return self.source.dim_in_degree(t) - self.rank_in_degree(t)

    def coker_dim_in_degree(self, t: int) -> int:
        return self.target.dim_in_degree(t) - self.rank_in_degree(t)

    def min_entry_degree_is_positive(self) -> bool:
        """True when every nonzero entry has positive degree (minimality)."""
        return all(e.degree() for col in self.cols for e in col.values())

    def __repr__(self):
        body = "; ".join(
            ", ".join("%d: %s" % (i, col[i]) for i in sorted(col)) for col in self.cols
        )
        return "Matrix[%s <- %s](%s)" % (
            list(self.target.degrees),
            list(self.source.degrees),
            body,
        )


def monomial_multiple(ring: GradedRing, col: Column, mono: tuple) -> dict:
    """mono * col as a k-vector: {(standard monomial, row): coefficient},
    each product entry taken to its normal form.  The entries of col are
    normal forms already, so mono = 1 reads them as they are, and over a
    ring without relations every product of them is one too."""
    if any(mono):
        amb, nf = ring.ambient, ring.normal_form
        if not ring.gb:
            return {
                (amb.mono_mul(m, mono), i): c
                for i, e in col.items()
                for m, c in e.terms.items()
            }
        col = {
            i: nf(Poly(amb, {amb.mono_mul(m, mono): c for m, c in e.terms.items()}))
            for i, e in col.items()
        }
    return {(m, i): c for i, e in col.items() for m, c in e.terms.items()}


# ---------- exact field linear algebra ----------


class _Span:
    """Echelon basis of a subspace of k-vectors held as sparse dicts.

    The keys of the vectors in one span must be mutually comparable.  Each
    stored row is kept under its pivot, its smallest key, as the inverse of
    its pivot coefficient and a dict of its other entries, unscaled: one
    product scales each reduction step, where scaling the row to pivot 1
    would cost one per entry.  A vector is reduced in pivot order, the
    discipline of F4-style sparse elimination: its keys are taken in
    ascending order from a heap, a key that is the pivot of a row is
    eliminated by that row, which only brings in larger keys, and the first
    key that is no row's pivot becomes a new one.
    """

    def __init__(self, field):
        self.field = field
        self.rows: Dict[object, Tuple[object, dict]] = {}

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; False when it already lay in it."""
        f = self.field
        add, mul = f.add, f.mul
        rows = self.rows
        vec = dict(vec)
        heap = list(vec)
        heapify(heap)
        while heap:
            key = heappop(heap)
            c = vec.pop(key, None)
            if c is None:
                continue  # cancelled, or a key pushed twice
            row = rows.get(key)
            if row is None:
                rows[key] = (f.inv(c), vec)
                return True
            inv, row = row
            c = f.neg(mul(c, inv))
            for k, v in row.items():
                u = vec.get(k)
                if u is None:
                    vec[k] = mul(c, v)
                    heappush(heap, k)
                else:
                    # field elements are canonical, so zero is falsy
                    s = add(u, mul(c, v))
                    if s:
                        vec[k] = s
                    else:
                        del vec[k]
        return False


def field_rank(field, M: List[List]) -> int:
    """Rank of the field matrix M, given as a list of rows."""
    span = _Span(field)
    return sum(
        span.insert({c: v for c, v in enumerate(row) if not field.is_zero(v)})
        for row in M
    )
