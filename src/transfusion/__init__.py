"""Exact-arithmetic transgression and fusion products on finite groupoids.

Angles live in Q/Z (integers mod N, read out as fractions) and phases in
cyclotomic fields, so every identity the test suite checks is literal
equality, never a floating tolerance. The top level exports the names of the README's example and the
fusion-table pipeline; everything else is imported from its module.
"""

from .cochains import (
    coboundary_solve,
    inverse_transgression,
    parse_poly,
    poly_to_cocycle,
    shuffle_transgression,
)
from .fusion import fusion_table
from .groupoids import inertia, point_groupoid
from .groups import elementary_abelian

__version__ = "0.1.0"

__all__ = [
    "coboundary_solve",
    "elementary_abelian",
    "fusion_table",
    "inertia",
    "inverse_transgression",
    "parse_poly",
    "point_groupoid",
    "poly_to_cocycle",
    "shuffle_transgression",
]
