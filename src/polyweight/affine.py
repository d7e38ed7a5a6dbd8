"""Orbits of the affine Weyl group under the dot action, and the
shift-bijection check.

The affine group, the finite Weyl group W with translations by p times
the root lattice, acts by w.x = w(x + rho) - rho (Jantzen, *Representations
of Algebraic Groups*, II.6).  On the built-in gl, Levi, gsp and odd go
data W permutes, or permutes with signs, a few integer invariants of a
class, so one key names each orbit (``_orbit_key``), the shift bound has
a closed form and no element of W is listed.  Other data are refused.
"""

from collections import namedtuple

from .classify import simple_membership
from .errors import CapExceeded, DomainError, PreconditionError, ShiftRangeError
from .functional import _box
from .lattice import (
    check_dim, int_text, power_exceeds, prime_power, vec_add, vec_scale,
)

# Most box points ``orbit_in_box`` scans in one call, and most subset sums
# ``shift_bound_a`` reaches.
ORBIT_BOX_CAP = 1_000_000


def _family(datum):
    """The datum's family, or ``DomainError`` when its invariants are not
    known to hold: the gate is the mark a builder leaves in its datum's
    memo (``groups._built_in``), which ``_replace`` empties, so a
    hand-built or replaced datum is refused even where it equals a
    built-in one."""
    family = datum.family
    if family in ("gl", "levi", "gsp", "go_odd") and datum._cached("built-in", bool):
        return family
    raise DomainError(
        f"no dot-orbit invariant for the {family} datum "
        f"{datum.spec_string}: the orbit checks cover the built-in gl, "
        "levi, gsp and odd go data"
    )


def _mirror_steps(x, family):
    """u_i = x_i - x_i' + (l - i) for gsp, or t_i = 2(x_i - x_i' + l - i)
    - 1 for odd go, for i < l and i' = n - 1 - i: x + rho in coordinates
    where W acts by signed permutations, doubled for odd go."""
    n, l = len(x), len(x) // 2
    if family == "gsp":
        return [x[i] - x[n - 1 - i] + l - i for i in range(l)]
    return [2 * (x[i] - x[n - 1 - i] + l - i) - 1 for i in range(l)]


def _orbit_key(x, p, datum, family):
    """The invariant naming the dot orbit of the class of x: two weights
    lie in one orbit modulo p times the roots plus the kernel iff their
    keys are equal.

    * gl and Levi: no kernel, W permutes each block, and p times the
      roots are the vectors of p Z^n with sum 0 on each block; so the key
      is each block's sum and multiset of 2(x + rho) mod 2p.
    * gsp and odd go: a class is (x_i - x_i' for i < l, s = sum(x)); W
      fixes s and acts on the rest by signed permutations.  For odd go
      the roots span Z^l, so t is known mod 2p up to sign and order.  For
      gsp they span the vectors of even sum, so u is known mod p up to
      sign and order, and the p v between two such has sum(v) even.  For
      odd p that parity is s(x) - s(lam) mod 2, as signs keep parity; for
      p = 2 a sign moves sum(v) by u_i, so it is free unless every u_i
      is even, and then it is sum(u) mod 4.
    """
    if family in ("gl", "levi"):
        two_rho = datum.positive_root_sum_twice
        return tuple(
            (sum(x[i] for i in blk),
             tuple(sorted((2 * x[i] + two_rho[i]) % (2 * p) for i in blk)))
            for blk in datum.blocks
        )
    steps = _mirror_steps(x, family)
    m = p if family == "gsp" else 2 * p
    key = (sum(x), tuple(sorted(min(g % m, -g % m) for g in steps)))
    if family == "gsp" and p == 2 and not any(g % 2 for g in steps):
        return key + (sum(steps) % 4,)
    return key


class OrbitSlice(namedtuple("OrbitSlice", "base box_radius elements")):
    """Distinct orbit classes meeting a coordinate box.

    ``elements`` holds one canonical representative per class; when the
    kernel is non-trivial the representative is the reduced form of a box
    member and may itself leave the box.
    """

    __slots__ = ()


def orbit_in_box(weight, p, box_radius, datum):
    """All dot-orbit classes with a representative in the closed box.

    A box point lies in the orbit iff its key (``_orbit_key``) equals the
    weight's: an exact test in O(n log n) per point.  Raises, in order,
    ``lattice.prime_power``'s DomainError when p is not prime,
    CapExceeded when the box has more than ``ORBIT_BOX_CAP`` points, and
    ``_family``'s DomainError.  Each call scans its box; nothing is kept.
    """
    n = datum.ambient_dim
    check_dim(weight, n)
    points = _box(n, box_radius)
    prime_power(p, 1)  # refuses a p that is not a prime
    if power_exceeds(2 * box_radius + 1, n, ORBIT_BOX_CAP):
        raise CapExceeded(
            f"orbit scan of the box of radius {int_text(box_radius)} in "
            f"dimension {n} has more than {ORBIT_BOX_CAP} points"
        )
    family = _family(datum)
    key, total = _orbit_key(weight, p, datum, family), sum(weight)
    # every key fixes the coordinate sum, so that is tested first
    found = {
        datum.lattice.canonical_rep(x)
        for x in points
        if sum(x) == total and _orbit_key(x, p, datum, family) == key
    }
    return OrbitSlice(
        base=tuple(weight), box_radius=box_radius, elements=tuple(sorted(found))
    )


def shift_bound_a(weight, ctx):
    """The maximal twisted distinguished coordinate, reduced mod p.

    Over the full Weyl group, take the distinguished-basis coordinate x0
    of w.weight and reduce it into [0, p - 1]; the bound a is the
    maximum.  Only data whose distinguished sublattice has rank one carry
    this notion, and ``_family`` refuses data without invariants.

    * gl and one-block Levi: x0 is the last coordinate, (lam + rho)_i -
      rho_(n-1) for the i that w moves last, so a is the largest
      (lam_i + n - 1 - i) mod p.
    * gsp and odd go: x0 is (s - sum(x_i - x_i'))/2, or s - sum(x_i -
      x_i'), so negating the set S moves it by the sum of g_i over S
      (``_mirror_steps``), and a = max_S (x0(lam) + sum_S g_i) mod p.  The
      subset sums are reached one g at a time, up to p - 1; their work
      counts against ``ORBIT_BOX_CAP``, and is refused before it is done.
    """
    datum = ctx.datum
    if datum.x0_rank != 1:
        raise DomainError(
            "the shift bound needs a rank-one distinguished sublattice; "
            f"{datum.spec_string} has rank {datum.x0_rank}"
        )
    family = _family(datum)
    p = ctx.p
    if family in ("gl", "levi"):
        n = datum.ambient_dim
        check_dim(weight, n)
        return max((x + n - 1 - i) % p for i, x in enumerate(weight))
    (x0,) = ctx.x0_coordinates(weight)
    reach, work = {x0 % p}, 0
    for g in _mirror_steps(weight, family):
        if p - 1 in reach:
            break
        work += len(reach)
        if work > ORBIT_BOX_CAP:
            raise CapExceeded(
                f"shift bound of {datum.spec_string} at p = {p} reaches "
                f"more than {ORBIT_BOX_CAP} subset sums"
            )
        reach |= {(r + g) % p for r in reach}
    return max(reach)


class ShiftCheckResult(
    namedtuple("ShiftCheckResult", "ok counterexample orbit_size shift_bound")
):
    """Verdict of the shift-bijection check; ``counterexample`` is the
    first orbit class whose membership the shift changes, or None."""

    __slots__ = ()


def check_shift_bijection(weight, i, ctx, box_radius):
    """Verify the shift equivalence on an orbit slice.

    For every orbit class mu in the box, membership of mu in the
    simple-polynomial set must match that of mu + i*b, b the
    distinguished weight.  The admissible range is 0 <= i <= p - a - 1
    with a the shift bound; i = 0 is vacuously true.  Classes without a
    restricted digit representative count as non-members on both sides.

    The bound comes first, so a datum whose distinguished sublattice is
    not of rank one raises ``DomainError`` before the base weight is
    tested, and the result carries the bound as ``shift_bound``.  The
    radius rule of ``functional._box`` holds at every i, i = 0 included.
    """
    datum = ctx.datum
    a = shift_bound_a(weight, ctx)
    if not simple_membership(weight, ctx):
        raise PreconditionError(
            "the base weight is not in the simple-polynomial set"
        )
    if i < 0 or i > ctx.p - a - 1:
        raise ShiftRangeError(
            f"shift index {int_text(i)} outside the admissible range "
            f"[0, {ctx.p - a - 1}] for bound a = {a}"
        )
    _box(datum.ambient_dim, box_radius)  # the radius rule, at every i
    elements = orbit_in_box(weight, ctx.p, box_radius, datum).elements if i else ()
    step = vec_scale(i, datum.d_vectors[0])
    counterexample = next(
        (mu for mu in elements if simple_membership(mu, ctx)
         != simple_membership(vec_add(mu, step), ctx)),
        None,
    )
    return ShiftCheckResult(
        ok=counterexample is None,
        counterexample=counterexample,
        orbit_size=len(elements),
        shift_bound=a,
    )
