"""Box certification of the functional's properties.

The functional is additive in a Weyl-twisted sense: for any two weights
some group element, ``find_witness_w``, aligns the block minima so that
phi adds exactly.  ``check_assumption`` certifies this and three more
facts on coordinate boxes, exactly: additivity and homogeneity by proof,
positivity and the x0 bijection by walks over block minima and
coefficient vectors.  The functional and its box walk come from
:mod:`polyweight.functional`.
"""

import math
from collections import namedtuple

from .errors import CapExceeded, DomainError, HypothesisFailure, PreconditionError
from .functional import _box, phi_ambient
from .lattice import (
    PRPOW_BIT_LIMIT,
    as_integer,
    check_dim,
    int_text,
    power_exceeds,
    prime_power,
    vec_add,
    vec_scale,
)
from .weyl import act, block_constant, require

# Most classes ``check_assumption`` walks in one call, counted before it walks.
CERTIFY_CLASS_CAP = 1_000_000


def find_witness_w(lam, lam_prime, datum):
    """A Weyl element making the functional add on the given pair.

    Within every block the witness keeps the first position a0 of
    ``lam``'s minimum where ``lam_prime`` is minimal too, and otherwise
    transposes it with the first position of ``lam_prime``'s minimum, a
    transposition in the Weyl group by the lower group hypothesis.  The
    sweeps' witness (``_kernels.pair_witness_sweep``) transposes the two
    even where ``lam_prime`` is minimal at both: on ((5, -3), (2, 2)) and
    gl:2 this returns the identity where the sweep swaps.  Both rules
    restore additivity: on every block B the two minima sit at one
    position, so
    min_B(w.lam + lam_prime) = min_B(lam) + min_B(lam_prime), and phi
    adds blockwise.  The additivity postcondition is checked anyway and
    raises ``AssertionError`` on a miss, also under ``python -O``.
    """
    if not datum.validation().c_lower:
        raise HypothesisFailure(
            f"datum {datum.spec_string} fails the lower Weyl-group hypothesis; "
            "no witness construction is available"
        )
    n = datum.ambient_dim
    check_dim(lam, n)
    check_dim(lam_prime, n)
    require(datum)
    target = vec_add(phi_ambient(lam, datum), phi_ambient(lam_prime, datum))

    w = tuple(range(n))
    for blk in datum.blocks:
        a0 = min(blk, key=lambda a: (lam[a], a))
        m1 = min(lam_prime[a] for a in blk)
        if lam_prime[a0] == m1:
            continue
        a1 = min(a for a in blk if lam_prime[a] == m1)
        if a0 != a1:
            w = tuple(
                a1 if x == a0 else a0 if x == a1 else x for x in w
            )
    if phi_ambient(vec_add(act(w, lam), lam_prime), datum) != target:
        raise AssertionError("the canonical witness does not restore additivity")
    return w


def kernel_block_constancy(mu, datum):
    """Whether a kernel element is constant on every block."""
    check_dim(mu, datum.ambient_dim)
    if not datum.lattice.contains(mu):
        raise PreconditionError("weight is not in the kernel sublattice")
    return block_constant(mu, datum.blocks)


class PropertyVerdict(
    namedtuple(
        "PropertyVerdict",
        "name ok checked witness skipped evaluated",
        defaults=("", False, 0),
    )
):
    """One certified property: verdict, box points or pairs covered, first
    witness, and the number of points actually evaluated; 0 evaluated
    means the verdict is decided by proof, or skipped."""

    __slots__ = ()


class AssumptionReport(
    namedtuple(
        "AssumptionReport",
        "group p r box_radius positivity homogeneity additivity_witness "
        "x0_bijection",
    )
):
    """Outcome of the box certification of the four properties."""

    __slots__ = ()

    @property
    def properties(self):
        return (
            self.positivity,
            self.homogeneity,
            self.additivity_witness,
            self.x0_bijection,
        )

    @property
    def all_ok(self):
        return all(v.ok for v in self.properties if not v.skipped)


def default_box_radius(ambient_dim):
    """Box radius keeping the exhaustive suites fast: 2 beyond dimension 4."""
    return 2 if ambient_dim >= 5 else 3


def _points_through(point, radius):
    """How many box points come up to and including ``point`` in box order."""
    index = 0
    for v in point:
        index = index * (2 * radius + 1) + v + radius
    return index + 1


def _block_kernel(datum):
    """Each kernel basis vector's value on each block, as columns, once
    ``weyl.require`` has checked the premises they are read on."""
    require(datum, kernel="the box certificate needs block-constant kernel vectors")
    return [
        tuple(vec[blk[0]] for blk in datum.blocks)
        for vec in datum.lattice.kernel_basis
    ]


def _shift_exists(mins, cols):
    """Whether some kernel shift makes every block minimum non-negative.

    ``cols[k][B]`` is kernel vector k's value on block B, so the question
    is whether some integer vector c has mins[B] + sum_k c_k cols[k][B]
    >= 0 on every block B.

    Every coefficient starts unbounded, and its range is narrowed to the
    values each block constraint still allows given the other ranges.  A
    narrowing keeps every solution, so a depth-first search of the
    narrowed ranges is exact; it fixes the coefficients in turn and
    abandons a branch as soon as some block can no longer reach 0.

    The narrowing ends.  While some bound is infinite, only infinite
    bounds are narrowed, and each of the 2 * krank bounds turns finite at
    most once; after that, every narrowing shrinks a finite integer
    range.  (Narrowing a finite bound while its opposite is infinite
    could raise it step by step forever when no solution exists.)  If a
    bound is still infinite at the end, no finite search decides the
    question, and ``DomainError`` is raised.
    """
    krank = len(cols)
    lo = [-math.inf] * krank
    hi = [math.inf] * krank
    # each block's constraint, as its (k, cols[k][B]) with a non-zero value
    terms = [
        [(k, col[b]) for k, col in enumerate(cols) if col[b]]
        for b in range(len(mins))
    ]

    def reach(k, x):
        # the most c_k * x can be: an int or +inf
        return x * (hi[k] if x > 0 else lo[k])

    def bounded():
        return math.inf not in hi and -math.inf not in lo

    changed = True
    while changed:
        changed = False
        settled = bounded()
        for mb, row in zip(mins, terms):
            if mb + sum(reach(k, x) for k, x in row) < 0:
                return False
            for k, x in row:
                rest = mb + sum(reach(i, y) for i, y in row if i != k)
                if rest == math.inf:
                    continue
                if x > 0 and -(rest // x) > lo[k]:
                    if settled or lo[k] == -math.inf:
                        lo[k] = -(rest // x)
                        changed = True
                elif x < 0 and rest // -x < hi[k]:
                    if settled or hi[k] == math.inf:
                        hi[k] = rest // -x
                        changed = True
                if lo[k] > hi[k]:
                    return False
    if not bounded():
        raise DomainError(
            f"kernel shift coefficients stay unbounded at block minima "
            f"{tuple(mins)}; the positivity oracle cannot decide them"
        )

    # slack[k][b]: the most that coefficients k, k+1, ... can add to block b
    slack = [[0] * len(mins)]
    for k in range(krank - 1, -1, -1):
        slack.insert(0, [s + reach(k, x) for s, x in zip(slack[0], cols[k])])

    def search(k, partial):
        if k == krank:
            return True
        col, after = cols[k], slack[k + 1]
        for c in range(lo[k], hi[k] + 1):
            moved = [v + c * x for v, x in zip(partial, col)]
            if all(v + s >= 0 for v, s in zip(moved, after)) and search(
                k + 1, moved
            ):
                return True
        return False

    return search(0, list(mins))


def _positivity(datum, radius, cols):
    """The sign test against the kernel-shift oracle, per vector of block
    minima; returns (checked, evaluated, first failure or None)."""
    n, blocks = datum.ambient_dim, datum.blocks
    block_of = [0] * n
    for i, blk in enumerate(blocks):
        for a in blk:
            block_of[a] = i
    # box order of the block-constant representatives is lexicographic
    # order of the minima, blocks taken by their least member
    order = sorted(range(len(blocks)), key=lambda i: min(blocks[i]))
    evaluated = 0
    mins = [0] * len(blocks)
    for values in _box(len(blocks), radius):
        for i, v in zip(order, values):
            mins[i] = v
        evaluated += 1
        rep = tuple(mins[block_of[a]] for a in range(n))
        ok_phi = min(phi_ambient(rep, datum)) >= 0
        ok_oracle = _shift_exists(mins, cols)
        if ok_phi != ok_oracle:
            failure = (rep, ok_phi, ok_oracle)
            return _points_through(rep, radius), evaluated, failure
    return (2 * radius + 1) ** n, evaluated, None


def check_assumption(datum, p, r, box_radius=None):
    """Certify the four functional properties on a coordinate box.

    Property 1 (positivity) compares the sign test against a kernel-shift
    oracle that never evaluates the functional.  Property 2 is exact
    p^r-homogeneity.  Property 3 is additivity under the canonical
    witness for every ordered pair of box weights, and is skipped with an
    explicit marker for data failing the lower Weyl-group hypothesis.
    Property 4 checks that the functional inverts the distinguished
    combinations c |-> sum c_j d_j.  Each verdict's ``checked`` counts
    the box points or pairs it covers, up to and including the first
    failure in box order, and ``evaluated`` the points it actually
    evaluated, 0 for a verdict decided by proof.  Failures are reported
    with the first failing point in box order, never raised.

    The functional is phi(v) = sum_B min_B(v) n_B with non-negative rows
    n_B.  Properties 2 and 3 hold for every datum, so they are decided
    by proof and cover the whole box:

    * Homogeneity.  min is linear under a positive scale, and p^r >= 1,
      so min_B(p^r lam) = p^r min_B(lam) on every block and
      phi(p^r lam) = p^r phi(lam).
    * Additivity.  The sweeps' witness (``_kernels.pair_witness_sweep``)
      transposes, within each block B, the first position of lam's
      minimum with the first position b of the minimum of lam';
      ``find_witness_w`` keeps lam's where lam' is minimal too.  Either
      way a permutation within B keeps min_B, so
      min_B(w.lam + lam') >= min_B(lam) + min_B(lam'), and both minima
      sit at one position, so equality holds:
      min_B(w.lam + lam') = min_B(lam) + min_B(lam') on every block, and
      phi adds.

    Properties 1 and 4 read the datum's rows, once ``weyl.require`` passes:

    * Positivity.  Every kernel vector must be constant on each block
      (``DomainError`` otherwise).  Then a kernel shift moves all of a
      block by one amount, so whether some shift of lam is non-negative
      depends only on the vector m of block minima, and so does phi.
      Both are evaluated once per m in [-R, R]^s, at the block-constant
      representative, which is the first box point with those minima.
      The oracle narrows each shift coefficient's range from unbounded
      by the block constraints and searches what remains, so it is exact;
      ``DomainError`` is raised where a range stays unbounded.
    * x0 bijection.  The (2R+1)^l coefficient vectors, one at a time.

    Before any walk the classes are counted in closed form: (2R+1)^s
    vectors of block minima and (2R+1)^l coefficient vectors.  Above
    ``CERTIFY_CLASS_CAP`` in all, ``CapExceeded`` is raised.  So is a box
    whose pair count (2R+1)^(2n) may pass ``lattice.PRPOW_BIT_LIMIT``
    bits, bounded by 2n * bit_length(2R+1), so every count a report
    carries can be written in decimal.

    ``_kernels.pair_witness_sweep`` and ``poly_consistency_sweep`` are the
    exhaustive sweeps of properties 3 and 1; the test suite checks that
    they report the same verdicts, counts and witnesses on small boxes.
    ``poly_consistency_sweep`` runs the same exact shift search at every
    box point, one block per coordinate, so that comparison checks the
    factoring by block minima.
    """
    prime_power(p, r)  # refuses a bad p or r before any work
    n = datum.ambient_dim
    radius = default_box_radius(n)
    if box_radius is not None:
        radius = as_integer(box_radius, "box radius")
    if radius < 1:
        raise DomainError("box radius must be at least 1")
    side = 2 * radius + 1
    s, l = len(datum.blocks), datum.x0_rank
    if power_exceeds(side, max(s, l), CERTIFY_CLASS_CAP) or (
        side**s + side**l > CERTIFY_CLASS_CAP
    ):
        raise CapExceeded(
            f"box certification of {datum.spec_string} at radius "
            f"{int_text(radius)} walks more than {CERTIFY_CLASS_CAP} classes"
        )
    bits = 2 * n * side.bit_length()
    if bits > PRPOW_BIT_LIMIT:
        raise CapExceeded(
            f"box certification of {datum.spec_string} at radius "
            f"{int_text(radius)} "
            f"counts (2R+1)^(2n) pairs: 2n * bit_length(2R+1) = {bits} "
            f"exceeds {PRPOW_BIT_LIMIT}"
        )
    cols = _block_kernel(datum)

    checked, evaluated, fail = _positivity(datum, radius, cols)
    positivity = PropertyVerdict(
        name="positivity",
        ok=fail is None,
        checked=checked,
        witness=(
            ""
            if fail is None
            else f"weight {fail[0]}: sign test {fail[1]}, shift oracle {fail[2]}"
        ),
        evaluated=evaluated,
    )
    homogeneity = PropertyVerdict("homogeneity", True, side**n)
    if not datum.validation().c_lower:
        additivity = PropertyVerdict(
            name="additivity_witness",
            ok=False,
            checked=0,
            witness="hypothesis (c-lower) fails; witness construction unavailable",
            skipped=True,
        )
    else:
        additivity = PropertyVerdict("additivity_witness", True, side ** (2 * n))

    l = datum.x0_rank
    d_vecs = datum.d_vectors
    x0_checked = 0
    x0_witness = ""
    for coeffs in _box(l, radius):
        combo = (0,) * n
        for c, d in zip(coeffs, d_vecs):
            if c:
                combo = vec_add(combo, vec_scale(c, d))
        x0_checked += 1
        if phi_ambient(combo, datum) != coeffs:
            x0_witness = f"coefficients {coeffs}"
            break
    x0_bijection = PropertyVerdict(
        name="x0_bijection",
        ok=not x0_witness,
        checked=x0_checked,
        witness=x0_witness,
        evaluated=x0_checked,
    )

    return AssumptionReport(
        group=datum.spec_string,
        p=p,
        r=r,
        box_radius=radius,
        positivity=positivity,
        homogeneity=homogeneity,
        additivity_witness=additivity,
        x0_bijection=x0_bijection,
    )
