"""Finite products of DG-rings and their modules, kept one factor at a time.

A module over a finite product decomposes along the idempotents, so the
representation here is simply a tuple of factor modules.  Cohomological
invariants combine in the obvious way: inf is the minimum over the
factors, dimensions of the derived kind are maxima.
"""
from __future__ import annotations

from typing import Optional, Sequence

from ..core.ring import GradedRing
from .dgmodule import DGModule, koszul_dg_module, residue_dg_module
from .dgring import DGRing, build_ring_dg, build_trivial_extension


class ProductDGRing:
    """Finite product of DG-rings, componentwise everything.

    H^0 is the product of the factor H^0's; dimensions and amplitudes are
    maxima over factors.
    """

    def __init__(self, factors: Sequence[DGRing]):
        if not factors:
            raise ValueError("empty product")
        self.factors = tuple(factors)

    def dimension(self) -> int:
        return max(f.dimension() for f in self.factors)

    def __repr__(self):
        return "ProductDGRing(%s)" % " x ".join(map(repr, self.factors))


def build_split_trivial_extension(
    B: GradedRing, C: GradedRing, shift: int
) -> ProductDGRing:
    """(B x C) with a square-zero copy of C glued on in degree -shift.

    C acts on the new summand through the projection B x C -> C, so the
    extension leaves the B factor untouched and the whole thing splits as
    the product of B (as a DG-ring) with the one-factor extension of C.
    """
    return ProductDGRing([build_ring_dg(B), build_trivial_extension(C, shift)])


class ProductDGModule:
    """A DG-module over a product ring: one factor module per factor."""

    __slots__ = ("A", "parts")

    def __init__(self, A: ProductDGRing, parts: Sequence[DGModule]):
        parts = tuple(parts)
        if len(parts) != len(A.factors):
            raise ValueError("need exactly one part per product factor")
        for part, fac in zip(parts, A.factors):
            if part.A is not fac:
                raise ValueError("part does not live over its factor")
        self.A = A
        self.parts = parts

    def inf_h(self) -> Optional[int]:
        vals = [s for p in self.parts for s in [p.inf_h()] if s is not None]
        return min(vals) if vals else None


def per_factor(build, X, *args):
    """build(X, *args), taken one factor at a time when X is a product
    DG-ring or a module over one: the product of build(factor, *args) or
    of build(part, *args)."""
    if isinstance(X, ProductDGRing):
        return ProductDGModule(X, [build(f, *args) for f in X.factors])
    if isinstance(X, ProductDGModule):
        return ProductDGModule(X.A, [build(p, *args) for p in X.parts])
    return build(X, *args)


def factor_residue_module(ring: ProductDGRing, index: int) -> ProductDGModule:
    """The residue field of one factor, viewed over the whole product: the
    restriction along the projection, zero on every other factor."""
    parts = [
        residue_dg_module(f) if i == index
        else DGModule(f, [], {}, check=False)
        for i, f in enumerate(ring.factors)
    ]
    return ProductDGModule(ring, parts)


def product_koszul_module(
    ring: ProductDGRing, rows: Sequence[Sequence]
) -> ProductDGModule:
    """Koszul module on a sequence of product elements.

    Each row is one element of the product ring, given by one coordinate
    per factor (a base-ring polynomial or a string to parse)."""
    nfac = len(ring.factors)
    for row in rows:
        if len(row) != nfac:
            raise ValueError("each element needs one coordinate per factor")
    parts = []
    for i, fac in enumerate(ring.factors):
        parts.append(koszul_dg_module(fac, [row[i] for row in rows]))
    return ProductDGModule(ring, parts)

