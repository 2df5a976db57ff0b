"""Modules over product DG-rings, kept one factor at a time.

A module over a finite product decomposes along the idempotents, so the
representation here is simply a tuple of factor modules.  Cohomological
invariants combine in the obvious way: support is the union, sup/inf are
extrema over the factors, dimensions of the derived kind are maxima.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.ring import GradedRing
from .dgmodule import (
    DGModule,
    free_dg_module,
    koszul_dg_module,
    residue_dg_module,
    shift_dg,
    twist_dg,
)
from .dgring import (
    DGRing,
    ProductDGRing,
    build_ring_dg,
    build_trivial_extension,
)


def build_split_trivial_extension(
    B: GradedRing, C: GradedRing, shift: int
) -> ProductDGRing:
    """(B x C) with a square-zero copy of C glued on in degree -shift.

    C acts on the new summand through the projection B x C -> C, so the
    extension leaves the B factor untouched and the whole thing splits as
    the product of B (as a DG-ring) with the one-factor extension of C.
    """
    return ProductDGRing([build_ring_dg(B), build_trivial_extension(C, shift)])


def zero_dg_module(factor: DGRing) -> DGModule:
    """The zero module (no generators) over a single factor."""
    return DGModule(factor, [], {}, check=False, label="0")


class ProductDGModule:
    """A DG-module over a product ring: one factor module per factor."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring: ProductDGRing, parts: Sequence[DGModule]):
        parts = tuple(parts)
        if len(parts) != len(ring.factors):
            raise ValueError("need exactly one part per product factor")
        for part, fac in zip(parts, ring.factors):
            if part.A != fac:
                raise ValueError("part does not live over its factor")
        self.ring = ring
        self.parts = parts

    @property
    def A(self) -> ProductDGRing:
        return self.ring

    def cohomology_support(self) -> List[int]:
        out = set()
        for part in self.parts:
            out.update(part.cohomology_support())
        return sorted(out)

    def sup_h(self) -> Optional[int]:
        vals = [s for p in self.parts for s in [p.sup_h()] if s is not None]
        return max(vals) if vals else None

    def inf_h(self) -> Optional[int]:
        vals = [s for p in self.parts for s in [p.inf_h()] if s is not None]
        return min(vals) if vals else None

    def amp_h(self) -> Optional[int]:
        s, i = self.sup_h(), self.inf_h()
        if s is None or i is None:
            return None
        return s - i

    def is_acyclic(self) -> bool:
        return all(p.is_acyclic() for p in self.parts)


def product_free_module(
    ring: ProductDGRing, placements: Sequence
) -> ProductDGModule:
    """Free module with the same generator placements over every factor."""
    return ProductDGModule(
        ring, [free_dg_module(f, placements) for f in ring.factors]
    )


def factor_module(
    ring: ProductDGRing, index: int, part: DGModule
) -> ProductDGModule:
    """A module supported on one factor only (zero elsewhere); this is the
    restriction of a factor module along the projection."""
    parts = [
        part if i == index else zero_dg_module(f)
        for i, f in enumerate(ring.factors)
    ]
    return ProductDGModule(ring, parts)


def factor_residue_module(ring: ProductDGRing, index: int) -> ProductDGModule:
    """The residue field of one factor, viewed over the whole product."""
    return factor_module(ring, index, residue_dg_module(ring.factors[index]))


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


def shift_product(M: ProductDGModule, n: int) -> ProductDGModule:
    return ProductDGModule(M.ring, [shift_dg(p, n) for p in M.parts])


def twist_product(M: ProductDGModule, t: int) -> ProductDGModule:
    return ProductDGModule(M.ring, [twist_dg(p, t) for p in M.parts])
