"""Kernel-shift search reference for the polynomial-representative test.

The group builders once decided whether a class has a coordinatewise
non-negative representative by searching every kernel shift with
coefficients in a window, at (2w + 1)^(kernel rank) shifts per vector.
The library decides it with the sign of the block-minimum functional in
linear time (``classify.is_polynomial``); the tests keep the search as
an oracle that never evaluates the functional and require the two to
agree.
"""

import itertools


def has_nonneg_rep(lattice, vec, window):
    """Search the kernel-shift window for an all-non-negative representative."""
    basis = lattice.kernel_basis
    if not basis:
        return min(vec) >= 0
    rng = range(-window, window + 1)
    for coeffs in itertools.product(rng, repeat=len(basis)):
        shifted = list(vec)
        for c, k in zip(coeffs, basis):
            if c:
                for idx, kv in enumerate(k):
                    shifted[idx] += c * kv
        if min(shifted) >= 0:
            return True
    return False


def lift_window(vec):
    """The window the builders searched for a basis lift."""
    return sum(abs(c) for c in vec) + 1


def box_window(vec, radius):
    """A window for a box point: the coordinate spread plus the radius.

    It is a small-box bound, not a proof: from gsp:16 on, where the
    kernel is a chain of seven block differences, the box point
    (-1, -1, -1, -1, 1, ..., 1, -1, -1, -1, -1) of radius 1 needs the
    coefficient 4 against a window of 3.
    """
    return max(vec) - min(vec) + radius
