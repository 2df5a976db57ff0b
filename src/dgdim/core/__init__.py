"""Exact arithmetic core: fields, polynomials, graded rings, syzygies, modules."""
from .scalars import Field, PrimeField, Rationals, field_from_tag
from .poly import Poly, PolyRing, parse_poly
from .ring import (
    GradedRing,
    graded_ring_from_json,
    groebner_basis,
    make_graded_ring,
    reduce_poly,
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
    "groebner_basis",
    "make_graded_ring",
    "reduce_poly",
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
