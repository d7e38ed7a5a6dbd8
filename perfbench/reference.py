"""Reference computations made apart from polyweight.

Nothing here imports the package.  Each group family is rebuilt from its
definition (blocks, expansion matrix, simple coroots, distinguished
weights, kernel), and the block-minimum functional, the coroot test, the
digit-set predicate, class equality, the digit-set sizes, the Weyl-group
orders, the odd orthogonal failure prediction and the gl(n) orbit scan
are computed directly from those definitions.  The benchmark compares
every answer of the program against these.
"""

import itertools
import math


class Family:
    """One group datum, as the definitions give it.

    ``kind`` is gl, levi, gsp, go_odd or go_even; ``blocks`` partitions
    the ambient indices; ``nmat[i][j]`` expands block indicator i over
    distinguished weight j; ``coroots`` are covectors; ``dvecs`` are the
    distinguished weights.
    """

    def __init__(self, kind, n, blocks, nmat, coroots, dvecs, weyl_order, rank):
        self.kind = kind
        self.n = n
        self.blocks = blocks
        self.nmat = nmat
        self.coroots = coroots
        self.dvecs = dvecs
        self.weyl_order = weyl_order
        self.rank = rank


def _unit_diff(n, i, j, scale=1):
    out = [0] * n
    out[i] += scale
    out[j] -= scale
    return tuple(out)


def _indicator(n, support):
    return tuple(1 if i in support else 0 for i in range(n))


def _paired(n, j):
    out = [0] * n
    out[j] += 1
    out[j + 1] -= 1
    out[n - 1 - j] -= 1
    out[n - 2 - j] += 1
    return tuple(out)


def family(spec):
    """The reference datum of a group spec (gl:N, gsp:N, go:N, levi:a,b,...)."""
    name, _, rest = spec.partition(":")
    if name == "levi":
        parts = [int(x) for x in rest.split(",")]
        n = sum(parts)
        blocks, start = [], 0
        for size in parts:
            blocks.append(tuple(range(start, start + size)))
            start += size
        coroots = tuple(
            _unit_diff(n, blk[a], blk[a + 1])
            for blk in blocks for a in range(len(blk) - 1)
        )
        s = len(parts)
        return Family(
            "levi", n, tuple(blocks),
            tuple(tuple(int(i == j) for j in range(s)) for i in range(s)),
            coroots, tuple(_indicator(n, blk) for blk in blocks),
            math.prod(math.factorial(k) for k in parts), n,
        )
    n = int(rest)
    if name == "gl":
        return Family(
            "gl", n, (tuple(range(n)),), ((1,),),
            tuple(_unit_diff(n, i, i + 1) for i in range(n - 1)),
            ((1,) * n,), math.factorial(n), n,
        )
    l = n // 2
    pairs = tuple((i, n - 1 - i) for i in range(l))
    if name == "gsp":
        return Family(
            "gsp", n, pairs, ((1,),) * l,
            tuple(_paired(n, j) for j in range(l - 1)) + (_unit_diff(n, l - 1, l),),
            (_indicator(n, pairs[0]),), 2**l * math.factorial(l), l + 1,
        )
    if name == "go" and n % 2:
        return Family(
            "go_odd", n, pairs + ((l,),), ((2,),) * l + ((1,),),
            tuple(_paired(n, j) for j in range(l - 1))
            + (_unit_diff(n, l - 1, l + 1, scale=2),),
            (_indicator(n, (l,)),), 2**l * math.factorial(l), l + 1,
        )
    if name == "go":
        return Family(
            "go_even", n, pairs, ((1,),) * l, (), (_indicator(n, pairs[0]),),
            2 ** (l - 1) * math.factorial(l), l + 1,
        )
    raise ValueError(f"no reference for {spec!r}")


def phi(fam, weight):
    """Block minima expanded through the expansion matrix."""
    out = [0] * len(fam.dvecs)
    for blk, row in zip(fam.blocks, fam.nmat):
        m = min(weight[a] for a in blk)
        for j, c in enumerate(row):
            out[j] += c * m
    return tuple(out)


def pairings(fam, weight):
    return tuple(sum(a * b for a, b in zip(weight, cov)) for cov in fam.coroots)


def is_polynomial(fam, weight):
    return min(phi(fam, weight)) >= 0


def is_restricted(fam, weight, prpow):
    return all(0 <= v <= prpow - 1 for v in pairings(fam, weight))


def in_pr(fam, weight, prpow):
    """The literal digit-set predicate."""
    if not (is_polynomial(fam, weight) and is_restricted(fam, weight, prpow)):
        return False
    for d in fam.dvecs:
        shifted = tuple(w - prpow * c for w, c in zip(weight, d))
        if is_polynomial(fam, shifted):
            return False
    return True


def flag_word(fam, weight, prpow):
    """The four predicate bits of one box point, as the flag sweep packs them."""
    values = phi(fam, weight)
    poly = min(values) >= 0
    restricted = is_restricted(fam, weight, prpow)
    inrange = all(0 <= v <= prpow - 1 for v in values)
    literal = in_pr(fam, weight, prpow)
    return poly | restricted << 1 | inrange << 2 | literal << 3


def class_key(fam, weight):
    """A complete invariant of the class of ``weight`` modulo the kernel.

    gl and levi have no kernel.  The gsp kernel is spanned by b_i - b_{i+1},
    so a class is fixed by the within-pair differences and the sum of the
    pair values.  The go_odd kernel is spanned by b_i - 2 b_mid, so a class
    is fixed by the within-pair differences and mid + 2 * (pair values).
    """
    if fam.kind in ("gl", "levi"):
        return tuple(weight)
    n = fam.n
    l = n // 2
    diffs = tuple(weight[i] - weight[n - 1 - i] for i in range(l))
    if fam.kind in ("gsp", "go_even"):
        return diffs + (sum(weight[i] for i in range(l)),)
    return diffs + (weight[l] + 2 * sum(weight[i] for i in range(l)),)


def same_class(fam, a, b):
    return class_key(fam, a) == class_key(fam, b)


def pr_size(fam, prpow):
    """|P_r|: prpow^rank, with one dual digit halved for go_odd."""
    if fam.kind == "go_odd":
        return prpow ** (fam.rank - 1) * ((prpow - 1) // 2 + 1)
    return prpow**fam.rank


def go_odd_unavailable(fam, weight, prpow):
    """Whether the class has no restricted representative.

    The short simple coroot of go_odd is twice a primitive covector, so a
    restricted weight pairs with it at an even value in [0, prpow - 1];
    the class is reachable only when half that pairing reduces mod prpow
    to at most (prpow - 1) / 2.
    """
    if fam.kind != "go_odd":
        return False
    half = pairings(fam, weight)[-1] // 2
    return 2 * (half % prpow) > prpow - 1


def box(n, radius):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def box_size(n, radius):
    return (2 * radius + 1) ** n


def gl_in_pr_closed_form(weight, prpow):
    """Criterion 2: consecutive differences and the last entry are digits."""
    top = prpow - 1
    n = len(weight)
    return (
        all(0 <= weight[i] - weight[i + 1] <= top for i in range(n - 1))
        and 0 <= weight[-1] <= top
    )


def gl_lambda0(weight, prpow):
    """The gl(n) digit part: the closed form solved from the last entry up."""
    out = [weight[-1] % prpow]
    for i in range(len(weight) - 2, -1, -1):
        out.append(out[-1] + (weight[i] - weight[i + 1]) % prpow)
    return tuple(reversed(out))


def gl_simple(weight, prpow):
    """gl(n) simple-polynomial membership: the quotient part is polynomial."""
    lam0 = gl_lambda0(weight, prpow)
    return min((w - z) // prpow for w, z in zip(weight, lam0)) >= 0


def gl_orbit_scan(weight, p, radius):
    """Box points in the dot-orbit of ``weight`` for gl(n) at prime p.

    The translations pZ(Phi) are the vectors with sum 0 and every entry
    divisible by p, and w(lam + rho) - rho differs from lam + rho by a
    permutation, so x is in the orbit iff sum(x) = sum(lam) and the
    entries of 2(x + rho) mod 2p form the same multiset as those of
    2(lam + rho).
    """
    n = len(weight)
    two_rho = [n - 1 - 2 * i for i in range(n)]

    def residues(v):
        return sorted((2 * a + r) % (2 * p) for a, r in zip(v, two_rho))

    target = residues(weight)
    total = sum(weight)
    return tuple(
        x for x in box(n, radius) if sum(x) == total and residues(x) == target
    )


def gl_shift_bound(weight, p):
    """max over Weyl elements of the last coordinate of w.lam, mod p.

    The last coordinate of w(lam + rho) - rho is lam_i + rho_i - rho_last
    for the index i sent last, and rho_i - rho_last = n - 1 - i.
    """
    n = len(weight)
    return max((weight[i] + n - 1 - i) % p for i in range(n))
