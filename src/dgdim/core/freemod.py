"""Graded free modules and homogeneous matrices over a GradedRing.

A free module is a tuple of generator degrees: F = R(-d_1) + ... + R(-d_r),
the i-th generator sitting in internal degree d_i.  A GradedMatrix represents
a degree-zero map source -> target, column j giving the image of the j-th
source generator; entry (i, j) is homogeneous of degree src_deg(j) -
tgt_deg(i) (or zero).

Degree-by-degree exact Gaussian elimination over the field provides ranks,
kernels and graded piece dimensions; it is the brute-force oracle backing the
Groebner-based module computations.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from .poly import Poly
from .ring import GradedRing


class GradedFreeModule:
    __slots__ = ("ring", "degrees")

    def __init__(self, ring: GradedRing, degrees: Sequence[int]):
        self.ring = ring
        self.degrees = tuple(int(d) for d in degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def twist(self, n: int) -> "GradedFreeModule":
        """F(n): generator degrees shifted down by n."""
        return GradedFreeModule(self.ring, tuple(d - n for d in self.degrees))

    def basis_in_degree(self, t: int) -> List[Tuple[tuple, int]]:
        """[(monomial, generator index)] spanning the degree-t piece."""
        out = []
        for j, d in enumerate(self.degrees):
            for m in self.ring.standard_monomials(t - d):
                out.append((m, j))
        return out

    def dim_in_degree(self, t: int) -> int:
        return sum(self.ring.hilbert_function(t - d) for d in self.degrees)

    def __eq__(self, other):
        return (
            isinstance(other, GradedFreeModule)
            and self.ring == other.ring
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((self.ring, self.degrees))

    def __repr__(self):
        return "Free(%s)" % (list(self.degrees),)


class GradedMatrix:
    """Homogeneous matrix over a GradedRing; entries kept in normal form."""

    __slots__ = ("ring", "target", "source", "entries")

    def __init__(
        self,
        target: GradedFreeModule,
        source: GradedFreeModule,
        entries: Sequence[Sequence[Poly]],
        normalize: bool = True,
    ):
        self.ring = target.ring
        self.target = target
        self.source = source
        if normalize:
            self.entries = tuple(
                tuple(self.ring.normal_form(e) for e in row) for row in entries
            )
        else:
            self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != target.rank:
            raise ValueError("row count != target rank")
        for row in self.entries:
            if len(row) != source.rank:
                raise ValueError("column count != source rank")

    def check_homogeneous(self) -> None:
        for i in range(self.target.rank):
            for j in range(self.source.rank):
                e = self.entries[i][j]
                if e.is_zero():
                    continue
                want = self.source.degrees[j] - self.target.degrees[i]
                if e.degree() != want:
                    raise ValueError(
                        "entry (%d,%d) has degree %s, expected %d"
                        % (i, j, e.degree(), want)
                    )

    @staticmethod
    def zero(target: GradedFreeModule, source: GradedFreeModule) -> "GradedMatrix":
        z = target.ring.zero()
        rows = [[z] * source.rank for _ in range(target.rank)]
        return GradedMatrix(target, source, rows, normalize=False)

    @staticmethod
    def identity(module: GradedFreeModule) -> "GradedMatrix":
        ring = module.ring
        rows = [
            [ring.one() if i == j else ring.zero() for j in range(module.rank)]
            for i in range(module.rank)
        ]
        return GradedMatrix(module, module, rows, normalize=False)

    @staticmethod
    def from_columns(
        target: GradedFreeModule, col_degrees: Sequence[int], cols: Sequence[Sequence[Poly]]
    ) -> "GradedMatrix":
        """The matrix with these columns; every entry must already be a
        normal form, since it is taken as given."""
        source = GradedFreeModule(target.ring, col_degrees)
        rows = [
            [cols[j][i] for j in range(len(cols))] for i in range(target.rank)
        ]
        return GradedMatrix(target, source, rows, normalize=False)

    @staticmethod
    def block_diagonal(
        target: GradedFreeModule, blocks: Sequence["GradedMatrix"]
    ) -> "GradedMatrix":
        """The blocks placed corner to corner: block k takes the rows and
        columns that follow those of blocks 0..k-1, and target must have as
        many rows as the blocks together."""
        z = target.ring.zero()
        width = sum(b.source.rank for b in blocks)
        rows: List[List[Poly]] = []
        left = 0
        for b in blocks:
            right = width - left - b.source.rank
            rows.extend([z] * left + list(row) + [z] * right for row in b.entries)
            left += b.source.rank
        source = GradedFreeModule(
            target.ring, [d for b in blocks for d in b.source.degrees]
        )
        return GradedMatrix(target, source, rows, normalize=False)

    def column(self, j: int) -> List[Poly]:
        return [self.entries[i][j] for i in range(self.target.rank)]

    def columns(self) -> List[List[Poly]]:
        return [self.column(j) for j in range(self.source.rank)]

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self o other  (apply other first)."""
        if other.target.degrees != self.source.degrees:
            raise ValueError("composition shape mismatch")
        ring = self.ring
        rows = []
        for i in range(self.target.rank):
            row = []
            for j in range(other.source.rank):
                acc = ring.zero()
                for k in range(self.source.rank):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a and b:
                        acc = acc + a * b
                row.append(ring.normal_form(acc))
            rows.append(row)
        return GradedMatrix(self.target, other.source, rows, normalize=False)

    def add(self, other: "GradedMatrix") -> "GradedMatrix":
        rows = [
            [
                self.ring.normal_form(self.entries[i][j] + other.entries[i][j])
                for j in range(self.source.rank)
            ]
            for i in range(self.target.rank)
        ]
        return GradedMatrix(self.target, self.source, rows, normalize=False)

    def negate(self) -> "GradedMatrix":
        rows = [[-e for e in row] for row in self.entries]
        return GradedMatrix(self.target, self.source, rows, normalize=False)

    def scale_sign(self, sign: int) -> "GradedMatrix":
        return self if sign >= 0 else self.negate()

    def twist(self, n: int) -> "GradedMatrix":
        return GradedMatrix(
            self.target.twist(n), self.source.twist(n), self.entries, normalize=False
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def apply_to_vector(self, vec: Sequence[Poly]) -> List[Poly]:
        ring = self.ring
        out = []
        for i in range(self.target.rank):
            acc = ring.zero()
            for j in range(self.source.rank):
                e = self.entries[i][j]
                if e and vec[j]:
                    acc = acc + e * vec[j]
            out.append(ring.normal_form(acc))
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
        columns = self.columns()
        for c, (mono, j) in enumerate(cols_basis):
            for key, coeff in monomial_multiple(self.ring, columns[j], mono).items():
                r = row_index.get(key)
                if r is None:
                    raise AssertionError("non-standard monomial in product")
                M[r][c] = coeff
        return rows_basis, cols_basis, M

    def rank_in_degree(self, t: int) -> int:
        _, _, M = self.matrix_in_degree(t)
        return field_rank(self.ring.field, M)

    def kernel_dim_in_degree(self, t: int) -> int:
        _, cols, M = self.matrix_in_degree(t)
        return len(cols) - field_rank(self.ring.field, M)

    def coker_dim_in_degree(self, t: int) -> int:
        return self.target.dim_in_degree(t) - self.rank_in_degree(t)

    def min_entry_degree_is_positive(self) -> bool:
        """True when every nonzero entry has positive degree (minimality)."""
        for i in range(self.target.rank):
            for j in range(self.source.rank):
                e = self.entries[i][j]
                if e and e.degree() == 0:
                    return False
        return True

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return "Matrix[%s <- %s](%s)" % (
            list(self.target.degrees),
            list(self.source.degrees),
            body,
        )


def monomial_multiple(ring: GradedRing, col: Sequence[Poly], mono: tuple) -> dict:
    """mono * col as a k-vector: {(standard monomial, row): coefficient},
    each product entry taken to its normal form."""
    one = ring.field.one()
    out = {}
    for i, e in enumerate(col):
        if e:
            prod = ring.normal_form(e.mul_term(mono, one))
            out.update(((m, i), c) for m, c in prod.terms.items())
    return out


# ---------- exact field linear algebra ----------


def field_rref(field, M: List[List]) -> Tuple[List[List], List[int]]:
    """Row-reduce a copy of M; returns (rref, pivot column list)."""
    A = [row[:] for row in M]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, nrows):
            if not field.is_zero(A[rr][c]):
                pivot = rr
                break
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = field.inv(A[r][c])
        A[r] = [field.mul(inv, v) for v in A[r]]
        for rr in range(nrows):
            if rr != r and not field.is_zero(A[rr][c]):
                factor = A[rr][c]
                A[rr] = [
                    field.sub(v, field.mul(factor, w)) for v, w in zip(A[rr], A[r])
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return A, pivots


def field_rank(field, M: List[List]) -> int:
    if not M or not M[0]:
        return 0
    return len(field_rref(field, M)[1])
