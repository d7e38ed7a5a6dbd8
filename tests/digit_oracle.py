"""Brute-force reference for the digit set P_r.

``classify.enumerate_Pr`` builds the digit set from its digit ranges.
The tests keep a box filter as an oracle that builds nothing: it applies
the literal predicate ``in_Pr`` to every point of an ambient box and
requires the two to agree.
"""

import itertools

from polyweight.classify import in_Pr


def pr_box_oracle(ctx, bound=None):
    """Brute-force digit set: filter an ambient box and canonicalize.

    Every digit-set class is polynomial, so it has an all-non-negative
    representative, and restrictedness bounds its coordinates; a box
    [0, bound]^n with bound = max(2 p^r, n (p^r - 1)) provably contains
    such a representative for the built-in families.
    """
    n = ctx.datum.ambient_dim
    if bound is None:
        bound = max(2 * ctx.prpow, n * (ctx.prpow - 1))
    reps = set()
    for v in itertools.product(range(bound + 1), repeat=n):
        if in_Pr(v, ctx):
            reps.add(ctx.datum.lattice.canonical_rep(v))
    return tuple(sorted(reps))
