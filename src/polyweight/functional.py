"""The blockwise-minimum weight functional.

The functional phi maps an ambient weight to an integer vector of length
l by taking the minimum coordinate over each block and expanding through
the non-negative n-matrix.  It is constant on kernel classes and detects
membership in the polynomial cone through its sign.  ``phi`` evaluates
it on a class of a datum meeting every construction hypothesis, and
``phi_ambient`` on a fixed representative.  ``_box`` walks the boxes of
``certify``, ``_kernels`` and ``affine``, which all build on this module.
"""

from .errors import DomainError, HypothesisFailure
from .lattice import as_integer, check_dim, int_text


def phi_ambient(weight, data):
    """Evaluate the functional on ambient coordinates, reading the rows of a
    datum or a ``classify.Tables`` as they are (see ``weyl.require_shape``)."""
    check_dim(weight, data.ambient_dim)
    out = [0] * data.x0_rank
    for blk, row in zip(data.blocks, data.n_matrix):
        m = min(weight[a] for a in blk)
        for j, coeff in enumerate(row):
            if coeff:
                out[j] += m * coeff
    return tuple(out)


def phi(weight, datum):
    """Evaluate the functional on a character class.

    Quotient semantics require a datum satisfying all construction
    hypotheses, because only then is the value provably independent of
    the chosen representative and sign-faithful for the polynomial cone.
    Callers studying the even orthogonal family evaluate on a fixed
    representative with ``phi_ambient``.
    """
    if not datum.validation().all_ok:
        raise HypothesisFailure(
            f"datum {datum.spec_string} fails a construction hypothesis; "
            "use phi_ambient to evaluate on a fixed representative"
        )
    return phi_ambient(weight, datum)


def _box(dim, radius):
    """The points of [-radius, radius]^dim in box order, made one at a time.

    This is the radius rule of every box walk: a radius that is not an
    integer, or is negative, raises ``DomainError`` at the call, before
    any point is made, and radius 0 is the one-point box.  Box order is
    ascending lexicographic, the last coordinate fastest.
    ``itertools.product`` walks the same order but first stores the
    2 * radius + 1 values as a tuple; this holds one point, so a huge
    radius costs no memory.
    """
    radius = as_integer(radius, "box radius")
    if radius < 0:
        raise DomainError(f"box radius must be at least 0, got {int_text(radius)}")
    return _box_points(dim, radius)


def _box_points(dim, radius):
    point = [-radius] * dim
    while True:
        yield tuple(point)
        i = dim - 1
        while i >= 0 and point[i] == radius:
            point[i] = -radius
            i -= 1
        if i < 0:
            return
        point[i] += 1
