"""Exact arithmetic core: fields, polynomials, graded rings, syzygies, modules."""
from .scalars import Field, PrimeField, Rationals, field_from_tag
from .poly import Poly, PolyRing, parse_poly
from .ring import (
    GradedRing,
    graded_ring_from_json,
    make_graded_ring,
)
from .freemod import (
    GradedFreeModule,
    GradedMatrix,
    field_rank,
)
from .syz import SyzygyEngine, syzygy_engine, syzygy_matrix
from .module import GradedModule, MinimalPresentation, minimal_presentation

__all__ = [
    "Field",
    "PrimeField",
    "Rationals",
    "field_from_tag",
    "Poly",
    "PolyRing",
    "parse_poly",
    "GradedRing",
    "graded_ring_from_json",
    "make_graded_ring",
    "GradedFreeModule",
    "GradedMatrix",
    "field_rank",
    "SyzygyEngine",
    "syzygy_engine",
    "syzygy_matrix",
    "GradedModule",
    "MinimalPresentation",
    "minimal_presentation",
]
