"""Exact symbolic toolkit for plane-partition series identities, torus
fixed-point combinatorics on framed-sheaf moduli, class polynomials of the
fixed components, and an independent finite-field point-counting oracle."""

from .fforacle import (
    BudgetExceededError,
    ChainInstance,
    GridInstance,
    count_chain_points,
    count_grid_points,
    oracle_vs_class,
)
from .motivic import (
    MotivicClass,
    bb_identity_check,
    commuting_grid_class,
    fixed_component_class,
    limit_class,
    limit_series_check,
    moduli_space_class,
    refined_macmahon_check,
    surjective_chain_class,
)
from .partitions import (
    DiagramTuple,
    PlanePartition,
    YoungDiagram,
    chi,
    enumerate_diagram_tuples,
    enumerate_plane_partitions,
)
from .series import (
    FactorProduct,
    NotPolynomialError,
    TruncatedSeries,
    TruncationProfile,
    expand_sum,
    gl_class,
    q_factorial,
)
from .torus import attracting_dimension, positive_weight_count, tangent_character
from .vuletic import box_weight, little_f, vuletic_lhs, vuletic_rhs, vuletic_weight, vuletic_weight_t0

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ChainInstance",
    "DiagramTuple",
    "FactorProduct",
    "GridInstance",
    "MotivicClass",
    "NotPolynomialError",
    "PlanePartition",
    "TruncatedSeries",
    "TruncationProfile",
    "YoungDiagram",
    "attracting_dimension",
    "bb_identity_check",
    "box_weight",
    "chi",
    "commuting_grid_class",
    "count_chain_points",
    "count_grid_points",
    "enumerate_diagram_tuples",
    "enumerate_plane_partitions",
    "expand_sum",
    "fixed_component_class",
    "gl_class",
    "limit_class",
    "limit_series_check",
    "little_f",
    "moduli_space_class",
    "oracle_vs_class",
    "positive_weight_count",
    "q_factorial",
    "refined_macmahon_check",
    "surjective_chain_class",
    "tangent_character",
    "vuletic_lhs",
    "vuletic_rhs",
    "vuletic_weight",
    "vuletic_weight_t0",
]
