"""Exact weight-lattice combinatorics for classical similitude groups.

The package models character lattices of diagonal tori as integer
quotient lattices, builds group data for the general linear, symplectic
similitude, odd and even orthogonal similitude, and block-diagonal Levi
families, and evaluates the block-minimum functional that detects
polynomial character classes.  On top of that sit the digit-set
predicates, the unique base-plus-multiple decomposition at a prime power
modulus, digit-set enumeration, certification of the structural
hypotheses, the even orthogonal rank-8 failure scenario, and the orbit
and shift-bijection checks of the affine dot action.

Hot sweep loops live in :mod:`polyweight._kernels`, one implementation
in Python and numpy; the constant ``kernel_backend_name`` names it.

Importing the package loads only this module and :mod:`polyweight.errors`.
The exception types, ``__version__`` and ``kernel_backend_name`` are
bound at import.  Every other public name is looked up in ``_LAZY`` on
first access (PEP 562), which imports the submodule defining it, so a
caller loads, and without cached bytecode compiles, only the modules it
uses.  No public name is also a submodule name: ``phi`` is the
functional, defined in :mod:`polyweight.functional`.
"""

import importlib

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

__version__ = "0.1.0"

# The one sweep implementation; the CLI echoes it as the "backend" JSON
# key, so CLI output depends on this value.
kernel_backend_name = "pure"

# Every public name not bound above, and the submodule defining it under
# the same name.
_LAZY = {
    "OrbitSlice": "affine",
    "ShiftCheckResult": "affine",
    "check_shift_bijection": "affine",
    "orbit_in_box": "affine",
    "shift_bound_a": "affine",
    "ClassificationContext": "classify",
    "CounterexampleReport": "classify",
    "Decomposition": "classify",
    "decompose": "classify",
    "enumerate_Pr": "classify",
    "go_even_counterexample": "classify",
    "in_Pr": "classify",
    "in_x0": "classify",
    "is_polynomial": "classify",
    "is_restricted": "classify",
    "is_simple_polynomial": "classify",
    "simple_membership": "classify",
    "weyl_orbit_witness_nonpolynomial": "classify",
    "GroupDatum": "groups",
    "ValidationReport": "weyl",
    "build_gl": "groups",
    "build_go_even": "groups",
    "build_go_odd": "groups",
    "build_gsp": "groups",
    "build_levi": "groups",
    "parse_group_spec": "groups",
    "permute_d": "groups",
    "validate_datum": "groups",
    "x0_basis": "groups",
    "AssumptionReport": "certify",
    "PropertyVerdict": "certify",
    "check_assumption": "certify",
    "default_box_radius": "certify",
    "find_witness_w": "certify",
    "kernel_block_constancy": "certify",
    "QuotientLattice": "lattice",
    "phi": "functional",
    "phi_ambient": "functional",
}

# The public names: the exception types and constants bound above, then
# the lazy ones.  Only exception types are taken from the namespace, so
# no other name bound above becomes public unlisted.
__all__ = [
    name
    for name, value in globals().items()
    if isinstance(value, type) and issubclass(value, PolyweightError)
] + ["__version__", "kernel_backend_name", *_LAZY]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    owner = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(owner, name)
    return value


def __dir__():
    return __all__

