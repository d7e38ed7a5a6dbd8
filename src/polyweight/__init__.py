"""Exact weight-lattice combinatorics for classical similitude groups.

The package models character lattices of diagonal tori as integer
quotient lattices, builds group data for the general linear, symplectic
similitude, odd and even orthogonal similitude, and block-diagonal Levi
families, and evaluates the block-minimum functional that detects
polynomial character classes.  On top of that sit the digit-set
predicates, the unique base-plus-multiple decomposition at a prime power
modulus, digit-set enumeration, certification of the structural
hypotheses, the even orthogonal rank-8 failure scenario, and the affine
dot-action with orbit and shift-bijection checks.

Hot sweep loops live in :mod:`polyweight._kernels`, one implementation
in Python and numpy; ``kernel_backend_name`` names it.
"""

from ._kernels import BACKEND_NAME as kernel_backend_name
from .affine import (
    AffineElement,
    OrbitSlice,
    ShiftCheckResult,
    affine_element,
    check_shift_bijection,
    compose_affine,
    dot_act,
    orbit_in_box,
    shift_bound_a,
)
from .classify import (
    ClassificationContext,
    CounterexampleReport,
    Decomposition,
    decompose,
    enumerate_Pr,
    go_even_counterexample,
    in_Pr,
    in_x0,
    is_polynomial,
    is_restricted,
    is_simple_polynomial,
    pr_box_oracle,
    simple_membership,
    weyl_orbit_witness_nonpolynomial,
)
from .errors import (
    CapExceeded,
    DecompositionUnavailable,
    DimensionMismatch,
    DomainError,
    HypothesisFailure,
    PolyweightError,
    PreconditionError,
    ShiftRangeError,
)
from .groups import (
    GroupDatum,
    ValidationReport,
    build_gl,
    build_go_even,
    build_go_odd,
    build_gsp,
    build_levi,
    parse_group_spec,
    permute_d,
    validate_datum,
    x0_basis,
)
from .lattice import QuotientLattice
from .phi import (
    AssumptionReport,
    PhiData,
    PropertyVerdict,
    check_assumption,
    default_box_radius,
    find_witness_w,
    kernel_block_constancy,
    phi,
    phi_ambient,
)

__version__ = "0.1.0"

__all__ = [
    "AffineElement",
    "AssumptionReport",
    "CapExceeded",
    "ClassificationContext",
    "CounterexampleReport",
    "Decomposition",
    "DecompositionUnavailable",
    "DimensionMismatch",
    "DomainError",
    "GroupDatum",
    "HypothesisFailure",
    "OrbitSlice",
    "PhiData",
    "PolyweightError",
    "PreconditionError",
    "PropertyVerdict",
    "QuotientLattice",
    "ShiftCheckResult",
    "ShiftRangeError",
    "ValidationReport",
    "affine_element",
    "build_gl",
    "build_go_even",
    "build_go_odd",
    "build_gsp",
    "build_levi",
    "check_assumption",
    "check_shift_bijection",
    "compose_affine",
    "decompose",
    "default_box_radius",
    "dot_act",
    "enumerate_Pr",
    "find_witness_w",
    "go_even_counterexample",
    "in_Pr",
    "in_x0",
    "is_polynomial",
    "is_restricted",
    "is_simple_polynomial",
    "kernel_backend_name",
    "kernel_block_constancy",
    "orbit_in_box",
    "parse_group_spec",
    "permute_d",
    "phi",
    "phi_ambient",
    "pr_box_oracle",
    "simple_membership",
    "shift_bound_a",
    "validate_datum",
    "weyl_orbit_witness_nonpolynomial",
    "x0_basis",
    "__version__",
]
