"""Dot-action of the affine Weyl group and the shift-bijection check.

The affine group is the semidirect product of the finite Weyl group with
translations by p times the root lattice; it acts through the rho-shifted
dot-action.  Orbit slices are computed exactly by scanning a coordinate
box and testing lattice membership of the difference against each
group-twisted base point, so no completeness window is needed.  The
section-style shift bound a and the bijection check cover the rank-one
distinguished case.
"""

from collections import namedtuple

from .classify import simple_membership
from .errors import CapExceeded, DomainError, PreconditionError, ShiftRangeError
from .functional import _box
from .lattice import (
    QuotientLattice,
    _echelonize,
    check_dim,
    vec_add,
    vec_scale,
    vec_sub,
)
from .weyl import act, compose

# Most box points ``orbit_in_box`` scans in one call.
ORBIT_BOX_CAP = 1_000_000


def _translation_lattice(datum, p, with_kernel):
    """Span of p times the simple roots, plus the kernel sublattice when
    ``with_kernel``; cached per datum, prime and flag."""
    key = ("translation-span", p, with_kernel)
    return datum._cached(key, _translation_span, datum, p, with_kernel)


def _translation_span(datum, p, with_kernel):
    gens = [vec_scale(p, root) for root in datum.simple_roots]
    if with_kernel:
        gens.extend(datum.lattice.kernel_basis)
    rows, _ = _echelonize(gens, datum.ambient_dim)
    return QuotientLattice(datum.ambient_dim, tuple(rows))


class AffineElement(namedtuple("AffineElement", "w translation")):
    """A finite Weyl element together with a translation in p times the
    root lattice.  Build through ``affine_element`` so the translation
    constraint is verified."""

    __slots__ = ()


def affine_element(w, translation, datum, p):
    n = datum.ambient_dim
    check_dim(w, n)
    check_dim(translation, n)
    if not _translation_lattice(datum, p, False).contains(translation):
        raise DomainError(
            f"translation {translation} is not in {p} times the root lattice"
        )
    return AffineElement(w=tuple(w), translation=tuple(translation))


def compose_affine(g, h, datum, p):
    """Product in the semidirect group: first apply h, then g."""
    return affine_element(
        compose(g.w, h.w),
        vec_add(g.translation, act(g.w, h.translation)),
        datum,
        p,
    )


def _parity_rows(datum):
    """GF(2) echelon of the kernel's echelon rows, cached per datum.

    Each row carries an integer lift so that solutions can be pulled
    back to Z.
    """
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
    fixed representative.  Results are cached per group element.
    """
    return datum._cached(("rho-shift", w), _halved_rho_shift, w, datum)


def _halved_rho_shift(w, datum):
    two_rho = datum.positive_root_sum_twice
    try:
        return halve_class(vec_sub(act(w, two_rho), two_rho), datum)
    except ValueError as exc:
        raise DomainError(
            "rho shift class is not divisible; datum is inconsistent"
        ) from exc


def _twist(w, weight, datum):
    """The untranslated dot action w.weight + half(w(2rho) - 2rho)."""
    return vec_add(act(w, weight), _rho_shift(w, datum))


def dot_act(g, weight, datum):
    """The rho-shifted action w(weight + rho) - rho + translation."""
    check_dim(weight, datum.ambient_dim)
    return vec_add(_twist(g.w, weight, datum), g.translation)


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
    and matched against the twisted base forms.  The resulting element
    sets are cached per orbit, since every weight of one orbit produces
    the same slice.  Raises CapExceeded, before scanning, when the box
    has more than ``ORBIT_BOX_CAP`` points.
    """
    n = datum.ambient_dim
    check_dim(weight, n)
    points = _box(n, box_radius)
    if (2 * box_radius + 1) ** n > ORBIT_BOX_CAP:
        raise CapExceeded(
            f"orbit scan of the box of radius {box_radius} in dimension {n} "
            f"has more than {ORBIT_BOX_CAP} points"
        )
    membership = _translation_lattice(datum, p, True)
    base_forms = {
        membership.canonical_rep(_twist(w, weight, datum))
        for w in datum.weyl_group()
    }
    key = ("orbit-slice", p, box_radius, min(base_forms))
    elements = datum._cached(key, _orbit_scan, points, membership, base_forms, datum)
    return OrbitSlice(base=tuple(weight), box_radius=box_radius, elements=elements)


def _orbit_scan(points, membership, base_forms, datum):
    found = {
        datum.lattice.canonical_rep(x)
        for x in points
        if membership.canonical_rep(x) in base_forms
    }
    return tuple(sorted(found))


def shift_bound_a(weight, ctx):
    """The maximal twisted distinguished coordinate, reduced mod p.

    Over the full Weyl group, take the distinguished-basis coordinate of
    w.weight + half(w(2rho) - 2rho) and reduce it into [0, p - 1]; the
    bound a is the maximum.  Only data whose distinguished sublattice has
    rank one carry this notion.
    """
    datum = ctx.datum
    if datum.x0_rank != 1:
        raise DomainError(
            "the shift bound needs a rank-one distinguished sublattice; "
            f"{datum.spec_string} has rank {datum.x0_rank}"
        )
    best = 0
    for w in datum.weyl_group():
        value = ctx.x0_coordinates(_twist(w, weight, datum))[0] % ctx.p
        if value > best:
            best = value
    return best


class ShiftCheckResult(
    namedtuple(
        "ShiftCheckResult", "ok counterexample orbit_size shift_bound"
    )
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
    radius rule of ``functional._box`` holds at every i, the vacuous
    i = 0 included.
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
    _box(datum.ambient_dim, box_radius)  # refuses a negative radius
    if i == 0:
        return ShiftCheckResult(
            ok=True, counterexample=None, orbit_size=0, shift_bound=a
        )
    b = datum.d_vectors[0]
    step = vec_scale(i, b)
    elements = orbit_in_box(weight, ctx.p, box_radius, datum).elements
    for mu in elements:
        if simple_membership(mu, ctx) != simple_membership(
            vec_add(mu, step), ctx
        ):
            return ShiftCheckResult(
                ok=False,
                counterexample=mu,
                orbit_size=len(elements),
                shift_bound=a,
            )
    return ShiftCheckResult(
        ok=True, counterexample=None, orbit_size=len(elements), shift_bound=a
    )
