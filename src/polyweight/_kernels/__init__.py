"""Backend selection for the box-sweep kernels.

The heavy loops (all-pairs witness certification, decomposition uniqueness
sweeps, box-wide predicate evaluation) exist twice: a compiled extension
(`_fast`, generated from Cython) and a fallback twin (`pure`, Python and
numpy) with identical semantics and iteration order.  The compiled module
is preferred when it imported cleanly; setting the environment variable
POLYWEIGHT_PURE to a non-empty value forces the fallback.

All kernels consume the flat integer table bundle below.  Rows of 2-d
tables are concatenated; ``boff``/``bmem`` store the block partition as
offsets into a flat member list.
"""

import os
from collections import namedtuple

Tables = namedtuple(
    "Tables",
    [
        "n",        # ambient dimension
        "s",        # number of blocks
        "l",        # rank of the distinguished sublattice (columns of nmat)
        "boff",     # s + 1 block offsets
        "bmem",     # n block members, grouped by block
        "nmat",     # s * l expansion coefficients
        "ns",       # number of simple coroots
        "coroots",  # ns * n covector coordinates
        "dvecs",    # l * n ambient coordinates of the d weights
        "rank",     # rank of the character quotient
        "coef",     # rank * n coordinate functionals w.r.t. the basis
        "basis",    # rank * n ambient basis vectors (dual part, then d part)
        "diag",     # ns pairing values of dual basis elements (1 or 2)
        "krank",    # kernel rank
        "kernel",   # krank * n kernel basis vectors
    ],
    defaults=(0, (), (), 0, (), (), (), 0, ()),
)


def _select():
    if os.environ.get("POLYWEIGHT_PURE"):
        from . import pure as impl

        return impl, "pure"
    try:
        from . import _fast as impl

        return impl, "fast"
    except ImportError:
        from . import pure as impl

        return impl, "pure"


_impl, BACKEND_NAME = _select()

pair_witness_sweep = _impl.pair_witness_sweep
poly_consistency_sweep = _impl.poly_consistency_sweep
predicate_flags_box = _impl.predicate_flags_box
decompose_unique_sweep = _impl.decompose_unique_sweep
