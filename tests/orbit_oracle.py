"""The W scan: dot orbits by listing the Weyl group.

The library names each dot orbit by an invariant key and computes the
shift bound in closed form (``polyweight.affine``), without listing W.
The tests keep the scan those replaced as their oracle: twist the weight
by every Weyl element, w.lam = w(lam) + half(w(2 rho) - 2 rho), reduce
each twist modulo p times the roots plus the kernel, and test box points
against the reduced twists.  The permutation realization of a reflection
can differ from the reflection formula by a kernel element, so the
difference w(2 rho) - 2 rho is only even as a class, and ``halve_class``
halves it exactly in the quotient.

For gl, whose W is too large to list from rank 9 on, the module also
states the slice and the bound in closed form, from the definitions
rather than from the library's keys.
"""

import itertools

from polyweight.lattice import (
    QuotientLattice,
    _echelonize,
    check_dim,
    vec_add,
    vec_scale,
    vec_sub,
)
from polyweight.weyl import act


def translation_span(datum, p):
    """Span of p times the simple roots plus the kernel sublattice."""
    gens = [vec_scale(p, root) for root in datum.simple_roots]
    gens.extend(datum.lattice.kernel_basis)
    rows, _ = _echelonize(gens, datum.ambient_dim)
    return QuotientLattice(datum.ambient_dim, tuple(rows))


def _parity_echelon(kernel_rows):
    """GF(2) echelon of the kernel's echelon rows; each row carries an
    integer lift, so that solutions pull back to Z."""
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
    for pcol, prow, plift in _parity_echelon(datum.lattice._rows):
        if par[pcol]:
            par = [a ^ b for a, b in zip(par, prow)]
            shifted = [a + b for a, b in zip(shifted, plift)]
    if any(par):
        raise ValueError("coset is not divisible by 2")
    return tuple(c // 2 for c in shifted)


def rho_shift(w, datum):
    """A representative of half the class of w(2 rho) - 2 rho."""
    two_rho = datum.positive_root_sum_twice
    return halve_class(vec_sub(act(w, two_rho), two_rho), datum)


def twist(w, lam, datum):
    """The untranslated dot action w.lam, unreduced."""
    return vec_add(act(w, lam), rho_shift(w, datum))


def dot_orbit(weight, p, datum):
    """The twists of the weight by every Weyl element, reduced modulo
    ``translation_span``: one form per class of the orbit's base.  The
    rho shifts are kept in the datum's memo, aligned with W."""
    span = translation_span(datum, p)
    group = datum.weyl_group()
    shifts = datum._cached(
        "oracle-rho-shifts", lambda: [rho_shift(w, datum) for w in group]
    )
    return {
        span.canonical_rep(vec_add(act(w, weight), shift))
        for w, shift in zip(group, shifts)
    }


def scan_slice(forms, p, datum, points):
    """The classes among the box points whose reduced form is one of the
    orbit's ``forms``, as ``affine.orbit_in_box`` lists them: sorted
    canonical representatives."""
    span = translation_span(datum, p)
    found = {
        datum.lattice.canonical_rep(x)
        for x in points
        if span.canonical_rep(x) in forms
    }
    return tuple(sorted(found))


def scan_bound(forms, ctx):
    """The shift bound a: the largest distinguished coordinate mod p over
    the orbit's reduced ``forms``."""
    return max(ctx.x0_coordinates(form)[0] % ctx.p for form in forms)


def gl_closed_slice(lam, p, radius):
    """The gl orbit slice in closed form: x lies in the orbit of lam iff
    the sums agree and the multisets of x_i - i mod p agree, since
    rho = (n - 1)/2 - i and W permutes coordinates."""
    def key(x):
        return sum(x), sorted((c - i) % p for i, c in enumerate(x))

    target = key(lam)
    box = itertools.product(range(-radius, radius + 1), repeat=len(lam))
    return tuple(x for x in box if key(x) == target)


def gl_closed_bound(lam, p):
    """The largest last coordinate mod p of w.lam = w(lam + rho) - rho
    over W: the last coordinate is (lam + rho)_j - rho_(n-1) for the j
    that w moves last, whatever w does elsewhere."""
    n = len(lam)
    two_rho = [n - 1 - 2 * i for i in range(n)]
    return max(((2 * c + r - two_rho[-1]) // 2) % p for c, r in zip(lam, two_rho))
