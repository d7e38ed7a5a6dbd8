"""Orbits of the affine Weyl group under the dot action, and the
shift-bijection check.

The affine group, the finite Weyl group W with translations by p times
the root lattice, acts through the rho-shifted dot action.
``_dot_orbit`` twists a weight by W and reduces the twists modulo the
translation span.  Orbit slices scan a coordinate box against those
base forms, exactly, so no completeness window is needed, and the shift
bound a reads them in the rank-one distinguished case.  Both are kept
per class of the weight, and the rho shifts are one table per datum.
"""

from collections import namedtuple

from .classify import simple_membership
from .errors import CapExceeded, DomainError, PreconditionError, ShiftRangeError
from .functional import _box
from .lattice import (
    QuotientLattice,
    _echelonize,
    check_dim,
    prime_power,
    vec_add,
    vec_scale,
    vec_sub,
)
from .weyl import act

# Most box points ``orbit_in_box`` scans in one call.
ORBIT_BOX_CAP = 1_000_000


def _translation_lattice(datum, p):
    """Span of p times the simple roots plus the kernel sublattice; cached
    per datum and prime."""
    return datum._cached(("translation-span", p), _translation_span, datum, p)


def _translation_span(datum, p):
    gens = [vec_scale(p, root) for root in datum.simple_roots]
    gens.extend(datum.lattice.kernel_basis)
    rows, _ = _echelonize(gens, datum.ambient_dim)
    return QuotientLattice(datum.ambient_dim, tuple(rows))


def _parity_rows(datum):
    """GF(2) echelon of the kernel's echelon rows, cached per datum; each
    row carries an integer lift, so that solutions pull back to Z."""
    return datum._cached("parity-rows", _parity_echelon, datum.lattice._rows)


def _parity_echelon(kernel_rows):
    rows = []
    for k in kernel_rows:
        par = [c & 1 for c in k]
        lift = list(k)
        for pcol, prow, plift in rows:
            if par[pcol]:
                par = [a ^ b for a, b in zip(par, prow)]
                lift = [a + b for a, b in zip(lift, plift)]
        piv = next((i for i, c in enumerate(par) if c), None)
        if piv is not None:
            rows.append((piv, par, lift))
    rows.sort()
    return rows


def halve_class(vec, datum):
    """Exact division of the class of ``vec`` by 2.

    Finds a kernel shift making the vector coordinatewise even and
    halves it (an all-even vector is halved as it stands); raises
    ValueError if the class is not divisible.
    """
    check_dim(vec, datum.ambient_dim)
    par = [c & 1 for c in vec]
    shifted = list(vec)
    for pcol, prow, plift in _parity_rows(datum):
        if par[pcol]:
            par = [a ^ b for a, b in zip(par, prow)]
            shifted = [a + b for a, b in zip(shifted, plift)]
    if any(par):
        raise ValueError("coset is not divisible by 2")
    return tuple(c // 2 for c in shifted)


def _rho_shift(w, datum):
    """A representative of half the class of w(2 rho) - 2 rho.

    The permutation realization of a reflection can differ from the
    reflection formula by a kernel element, so the ambient difference is
    only guaranteed even as a class; the quotient-exact halving picks a
    fixed representative.
    """
    two_rho = datum.positive_root_sum_twice
    try:
        return halve_class(vec_sub(act(w, two_rho), two_rho), datum)
    except ValueError as exc:
        raise DomainError(
            "rho shift class is not divisible; datum is inconsistent"
        ) from exc


def _rho_shifts(datum):
    """The rho shift of every Weyl element, in the order of
    ``datum.weyl_group()``: one tuple, cached per datum."""
    return datum._cached(
        "rho-shifts",
        lambda: tuple(_rho_shift(w, datum) for w in datum.weyl_group()),
    )


def _dot_orbit(weight, p, datum):
    """The set of twisted base forms: w.weight + half(w(2rho) - 2rho)
    reduced modulo the translation span, for every Weyl element w."""
    span = _translation_lattice(datum, p)
    return {
        span.canonical_rep(vec_add(act(w, weight), shift))
        for w, shift in zip(datum.weyl_group(), _rho_shifts(datum))
    }


class OrbitSlice(namedtuple("OrbitSlice", "base box_radius elements")):
    """Distinct orbit classes meeting a coordinate box.

    ``elements`` holds one canonical representative per class; when the
    kernel is non-trivial the representative is the reduced form of a box
    member and may itself leave the box.
    """

    __slots__ = ()


def orbit_in_box(weight, p, box_radius, datum):
    """All dot-orbit classes with a representative in the closed box.

    A box point x lies in the orbit of the base weight iff for some Weyl
    element w the difference x - (w.weight + half(w(2rho) - 2rho)) falls
    in p times the root lattice (plus the kernel, which ambient
    representatives carry invisibly).  The scan is exact: every box
    point is reduced to its canonical form modulo that translation span
    and matched against the base forms of ``_dot_orbit``.  Raises
    CapExceeded, before scanning, when the box has more than
    ``ORBIT_BOX_CAP`` points, and ``lattice.prime_power``'s DomainError
    when p is not prime.

    The slice is cached per orbit, and per class of the weight modulo
    the translation span, so a repeat twists no Weyl element.  The base
    forms depend only on that class: w acts linearly and permutes the
    roots, so it maps p times the root lattice onto itself, and it
    preserves the kernel, so weight + t with t in the span twists to
    w.weight + w(t) plus the same rho shift, and w(t) lies in the span.
    """
    n = datum.ambient_dim
    check_dim(weight, n)
    points = _box(n, box_radius)
    prime_power(p, 1)  # refuses a p that is not a prime
    if (2 * box_radius + 1) ** n > ORBIT_BOX_CAP:
        raise CapExceeded(
            f"orbit scan of the box of radius {box_radius} in dimension {n} "
            f"has more than {ORBIT_BOX_CAP} points"
        )
    span = _translation_lattice(datum, p)
    key = ("orbit-slice-of", p, box_radius, span.canonical_rep(weight))
    elements = datum._cached(key, _orbit_slice, weight, p, box_radius, points, datum)
    return OrbitSlice(base=tuple(weight), box_radius=box_radius, elements=elements)


def _orbit_slice(weight, p, box_radius, points, datum):
    """The slice of the weight's orbit, cached per orbit: the key is the
    least of the twisted base forms, which every weight of it shares."""
    base_forms = _dot_orbit(weight, p, datum)
    key = ("orbit-slice", p, box_radius, min(base_forms))
    span = _translation_lattice(datum, p)
    return datum._cached(key, _orbit_scan, points, span, base_forms, datum)


def _orbit_scan(points, span, base_forms, datum):
    found = {
        datum.lattice.canonical_rep(x)
        for x in points
        if span.canonical_rep(x) in base_forms
    }
    return tuple(sorted(found))


def shift_bound_a(weight, ctx):
    """The maximal twisted distinguished coordinate, reduced mod p.

    Over the full Weyl group, take the distinguished-basis coordinate of
    w.weight + half(w(2rho) - 2rho) and reduce it into [0, p - 1]; the
    bound a is the maximum.  Only data whose distinguished sublattice has
    rank one carry this notion.

    The maximum is taken over the reduced base forms of ``_dot_orbit``
    and kept per prime and class of the weight modulo the translation
    span, so a repeat makes no pass over W.  Both are sound: the
    distinguished row (``weyl.coordinate_rows``) is integral and kills
    the kernel, so the coordinate mod p is constant on classes modulo p
    times the root lattice plus the kernel, and the weights of one class
    have the same base forms (see ``orbit_in_box``).
    """
    datum = ctx.datum
    if datum.x0_rank != 1:
        raise DomainError(
            "the shift bound needs a rank-one distinguished sublattice; "
            f"{datum.spec_string} has rank {datum.x0_rank}"
        )
    p = ctx.p
    key = ("shift-bound", p, _translation_lattice(datum, p).canonical_rep(weight))
    return datum._cached(key, _shift_bound, weight, ctx)


def _shift_bound(weight, ctx):
    forms = _dot_orbit(weight, ctx.p, ctx.datum)
    return max(ctx.x0_coordinates(form)[0] % ctx.p for form in forms)


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
            f"shift index {i} outside the admissible range "
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
