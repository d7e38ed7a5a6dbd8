"""Dot-action, orbit slices, shift bound, and the shift-bijection check."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyweight import affine
from polyweight.affine import (
    AffineElement,
    OrbitSlice,
    ShiftCheckResult,
    _rho_shift,
    affine_element,
    check_shift_bijection,
    compose_affine,
    dot_act,
    orbit_in_box,
    shift_bound_a,
)
from polyweight.classify import ClassificationContext, simple_membership
from polyweight.errors import (
    CapExceeded,
    DomainError,
    PreconditionError,
    ShiftRangeError,
)
from polyweight.groups import build_gl, build_go_odd, build_gsp, build_levi
from polyweight.lattice import vec_add, vec_sub
from polyweight.weyl import act, identity_perm

GL1 = build_gl(1)
GL2 = build_gl(2)
GL3 = build_gl(3)
GSP4 = build_gsp(4)
GO5 = build_go_odd(5)
LEVI23 = build_levi([2, 3])


def weights(datum, bound=5):
    return st.tuples(*([st.integers(-bound, bound)] * datum.ambient_dim))


def integer_span_test(gens, n):
    """Exact rational elimination deciding membership in the integer span
    of gens, done once for the generator matrix.

    Gauss-Jordan runs on the generator columns beside an identity block,
    so the block ends up holding the row operations.  Applied to a target
    they give the column the same elimination would leave there: zero
    below the pivot rows and integral on them for a member.  The
    operations are kept as integers over a common denominator.
    """
    m = len(gens)
    rows = [
        [Fraction(gens[j][i]) for j in range(m)]
        + [Fraction(int(k == i)) for k in range(n)]
        for i in range(n)
    ]
    piv = 0
    for col in range(m):
        row = next((r for r in range(piv, n) if rows[r][col]), None)
        if row is None:
            continue
        rows[piv], rows[row] = rows[row], rows[piv]
        inv = 1 / rows[piv][col]
        rows[piv] = [x * inv for x in rows[piv]]
        for r in range(n):
            if r != piv and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv])]
        piv += 1
    den = math.lcm(*(x.denominator for row in rows for x in row[m:]))
    ops = [[int(x * den) for x in row[m:]] for row in rows]

    def contains(target):
        reduced = [sum(a * x for a, x in zip(op, target)) for op in ops]
        return not any(reduced[piv:]) and all(v % den == 0 for v in reduced[:piv])

    return contains


def orbit_oracle(lam, p, radius, datum):
    """Independent orbit scan: test every box point against the system."""
    n = datum.ambient_dim
    gens = [tuple(p * c for c in root) for root in datum.simple_roots]
    gens += list(datum.lattice.kernel_basis)
    in_span = integer_span_test(gens, n)
    bases = [
        vec_add(act(w, lam), _rho_shift(w, datum))
        for w in datum.weyl_group()
    ]
    out = set()
    for x in itertools.product(range(-radius, radius + 1), repeat=n):
        if any(in_span(vec_sub(x, b)) for b in bases):
            out.add(datum.lattice.canonical_rep(x))
    return tuple(sorted(out))


class TestAffineElement:
    def test_accepts_scaled_roots(self):
        g = affine_element((0, 1), (2, -2), GL2, 2)
        assert g.translation == (2, -2)

    def test_rejects_non_lattice_translation(self):
        with pytest.raises(DomainError):
            affine_element((0, 1), (1, -1), GL2, 2)
        with pytest.raises(DomainError):
            affine_element((0, 1), (2, 0), GL2, 2)

    def test_composition_is_semidirect(self):
        s = (1, 0)
        g = affine_element(s, (2, -2), GL2, 2)
        h = affine_element((0, 1), (4, -4), GL2, 2)
        gh = compose_affine(g, h, GL2, 2)
        assert gh.w == s
        assert gh.translation == vec_add((2, -2), act(s, (4, -4)))


class TestDotAction:
    def test_gl2_frozen_values(self):
        e = affine_element((0, 1), (0, 0), GL2, 2)
        s = affine_element((1, 0), (0, 0), GL2, 2)
        t = affine_element((0, 1), (2, -2), GL2, 2)
        assert dot_act(e, (1, 0), GL2) == (1, 0)
        assert dot_act(s, (1, 0), GL2) == (-1, 2)
        assert dot_act(t, (1, 0), GL2) == (3, -2)

    def test_rho_shift_of_identity_is_zero(self):
        for datum in (GL2, GL3, GSP4, GO5, LEVI23):
            e = identity_perm(datum.ambient_dim)
            assert _rho_shift(e, datum) == (0,) * datum.ambient_dim

    @pytest.mark.parametrize("datum", [GL2, GL3], ids=["gl2", "gl3"])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_action_composition_ambient(self, datum, data):
        p = 2
        W = datum.weyl_group()
        root = datum.simple_roots[0]
        k = data.draw(st.integers(-2, 2))
        g = affine_element(
            data.draw(st.sampled_from(W)),
            tuple(p * k * c for c in root),
            datum,
            p,
        )
        h = affine_element(
            data.draw(st.sampled_from(W)),
            (0,) * datum.ambient_dim,
            datum,
            p,
        )
        lam = data.draw(weights(datum))
        assert dot_act(g, dot_act(h, lam, datum), datum) == dot_act(
            compose_affine(g, h, datum, p), lam, datum
        )

    @pytest.mark.parametrize("datum", [GSP4, GO5], ids=["gsp4", "go5"])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_action_composition_mod_kernel(self, datum, data):
        # permutation realizations of reflections are exact only up to the
        # kernel, so composition holds as classes
        p = 2
        W = datum.weyl_group()
        root = datum.simple_roots[0]
        k = data.draw(st.integers(-2, 2))
        g = affine_element(
            data.draw(st.sampled_from(W)),
            tuple(p * k * c for c in root),
            datum,
            p,
        )
        h = affine_element(
            data.draw(st.sampled_from(W)),
            (0,) * datum.ambient_dim,
            datum,
            p,
        )
        lam = data.draw(weights(datum))
        lhs = dot_act(g, dot_act(h, lam, datum), datum)
        rhs = dot_act(compose_affine(g, h, datum, p), lam, datum)
        assert datum.lattice.equal_mod_kernel(lhs, rhs)

    def test_rho_shift_consistent_with_two_rho_class(self):
        for datum in (GL2, GSP4, GO5, LEVI23):
            two_rho = datum.positive_root_sum_twice
            for w in datum.weyl_group():
                moved = vec_sub(act(w, two_rho), two_rho)
                doubled = tuple(2 * c for c in _rho_shift(w, datum))
                assert datum.lattice.equal_mod_kernel(doubled, moved)


class TestOrbitInBox:
    def test_gl1_orbits_are_singletons(self):
        for lam in [(-3,), (0,), (4,)]:
            assert orbit_in_box(lam, 2, 5, GL1).elements == (lam,)

    def test_gl2_two_branches_with_translations(self):
        got = orbit_in_box((1, 0), 2, 4, GL2).elements
        branch = set()
        for k in range(-3, 4):
            for base in ((1, 0), (-1, 2)):
                cand = vec_add(base, (2 * k, -2 * k))
                if max(abs(c) for c in cand) <= 4:
                    branch.add(cand)
        assert got == tuple(sorted(branch))

    @pytest.mark.parametrize(
        "datum,lam,radius",
        [
            (GL2, (0, 1), 4),
            (GL2, (-2, 3), 4),
            (GL3, (1, 0, 1), 3),
            (GSP4, (1, 0, 0, 0), 2),
            (GSP4, (2, 1, 0, 1), 2),
            (GO5, (1, 1, 0, 1, 0), 2),
        ],
        ids=["gl2-a", "gl2-b", "gl3", "gsp4-a", "gsp4-b", "go5"],
    )
    def test_matches_linear_solve_oracle(self, datum, lam, radius):
        got = orbit_in_box(lam, 2, radius, datum).elements
        assert got == orbit_oracle(lam, 2, radius, datum)

    def test_orbit_elements_are_canonical(self):
        slice_ = orbit_in_box((1, 0, 0, 1), 2, 2, GSP4)
        lat = GSP4.lattice
        for mu in slice_.elements:
            assert lat.canonical_rep(mu) == mu

    def test_dot_images_of_base_appear(self):
        lam = (1, 0)
        elements = set(orbit_in_box(lam, 2, 6, GL2).elements)
        for w in GL2.weyl_group():
            moved = vec_add(act(w, lam), _rho_shift(w, GL2))
            if max(abs(c) for c in moved) <= 6:
                assert GL2.lattice.canonical_rep(moved) in elements

    def test_box_past_the_cap_is_refused_before_the_scan(self, monkeypatch):
        # gl(3) boxes of radius 1 and 2 hold 27 and 125 points
        monkeypatch.setattr(affine, "ORBIT_BOX_CAP", 27)
        assert orbit_in_box((1, 0, 1), 2, 1, GL3).elements
        with pytest.raises(CapExceeded, match="more than 27 points"):
            orbit_in_box((1, 0, 1), 2, 2, GL3)

    def test_a_negative_radius_is_refused(self):
        # the radius rule of functional._box, where an empty slice would do
        for datum, lam in ((GL2, (1, 0)), (GL3, (1, 0, 1))):
            with pytest.raises(DomainError, match="box radius"):
                orbit_in_box(lam, 2, -1, datum)

    def test_radius_zero_is_the_origin(self):
        assert orbit_in_box((0, 0), 2, 0, GL2).elements == ((0, 0),)
        assert orbit_in_box((1, 0), 2, 0, GL2).elements == ()

    def test_another_weight_of_the_orbit_scans_no_box(self, monkeypatch):
        # the slice is kept per prime, radius and orbit, and the rho shift
        # per Weyl element, so a second weight of the orbit reuses both
        datum = build_gsp(4)
        calls = Counter()
        for name in ("_orbit_scan", "_halved_rho_shift"):

            def counted(*args, _name=name, _compute=getattr(affine, name)):
                calls[_name] += 1
                return _compute(*args)

            monkeypatch.setattr(affine, name, counted)
        lam = (1, 0, 0, 0)
        first = orbit_in_box(lam, 2, 2, datum)
        expected = {"_orbit_scan": 1, "_halved_rho_shift": len(datum.weyl_group())}
        assert calls == expected
        w = datum.weyl_group()[-1]
        other = vec_add(act(w, lam), _rho_shift(w, datum))
        assert datum.lattice.canonical_rep(other) != datum.lattice.canonical_rep(lam)
        assert orbit_in_box(other, 2, 2, datum).elements == first.elements
        assert calls == expected


class TestShiftBound:
    def test_gl2_frozen(self):
        c = ClassificationContext(GL2, 2, 1)
        assert shift_bound_a((1, 0), c) == 0

    def test_gl1_is_reduction_mod_p(self):
        c = ClassificationContext(GL1, 3, 1)
        for lam in range(-4, 5):
            assert shift_bound_a((lam,), c) == lam % 3

    def test_gl3_brute_force(self):
        c = ClassificationContext(GL3, 3, 1)
        datum = GL3
        best = 0
        for w in datum.weyl_group():
            moved = vec_add(act(w, (1, 1, 0)), _rho_shift(w, datum))
            best = max(best, c.x0_coordinates(moved)[0] % 3)
        assert shift_bound_a((1, 1, 0), c) == best == 2

    def test_needs_rank_one_distinguished_part(self):
        c = ClassificationContext(LEVI23, 2, 1)
        with pytest.raises(DomainError):
            shift_bound_a((1, 0, 0, 0, 0), c)


class TestShiftBijection:
    def test_gl2_frozen_case(self):
        c = ClassificationContext(GL2, 2, 1)
        result = check_shift_bijection((1, 0), 1, c, 4)
        assert result.ok
        assert result.shift_bound == 0
        assert result.counterexample is None
        assert result.orbit_size > 0

    def test_a_negative_radius_is_refused(self):
        # an empty orbit at R = -1 would make the check vacuously ok, and
        # the vacuous i = 0 answer must not skip the rule either
        c = ClassificationContext(GL3, 5, 1)
        for i in (1, 0):
            with pytest.raises(DomainError, match="box radius"):
                check_shift_bijection((0, 0, 0), i, c, -1)

    def test_zero_shift_is_vacuous(self):
        c = ClassificationContext(GL2, 2, 1)
        result = check_shift_bijection((1, 0), 0, c, 4)
        assert result.ok and result.orbit_size == 0

    def test_gl3_admissible_shifts(self):
        c = ClassificationContext(GL3, 3, 1)
        a = shift_bound_a((1, 1, 0), c)
        for i in range(0, 3 - a):
            assert check_shift_bijection((1, 1, 0), i, c, 4).ok

    def test_out_of_range_shift_rejected(self):
        c = ClassificationContext(GL2, 2, 1)
        with pytest.raises(ShiftRangeError):
            check_shift_bijection((1, 0), 5, c, 4)
        with pytest.raises(ShiftRangeError):
            check_shift_bijection((1, 0), -1, c, 4)

    def test_base_must_be_simple_polynomial(self):
        c = ClassificationContext(GL2, 2, 1)
        assert not simple_membership((1, -1), c)
        with pytest.raises(PreconditionError):
            check_shift_bijection((1, -1), 1, c, 4)

    def test_rank_one_is_required_before_the_base_weight(self):
        # the bound comes first, so a datum without a rank-one
        # distinguished part is refused whatever the base weight
        c = ClassificationContext(LEVI23, 3, 1)
        assert not simple_membership((-7, 0, 0, 0, 0), c)
        with pytest.raises(DomainError, match="rank-one"):
            check_shift_bijection((-7, 0, 0, 0, 0), 1, c, 6)

    def test_shift_equivalence_holds_pointwise(self):
        # the checked equivalence restated directly on one slice
        c = ClassificationContext(GL2, 2, 1)
        elements = orbit_in_box((1, 0), 2, 5, GL2).elements
        b = GL2.d_vectors[0]
        for mu in elements:
            assert simple_membership(mu, c) == simple_membership(
                vec_add(mu, b), c
            )


class TestRecords:
    """Construction, repr, equality and immutability of the records."""

    def test_affine_element(self):
        g = affine_element((1, 0), (2, -2), GL2, 2)
        assert g == AffineElement((1, 0), (2, -2))
        assert g == AffineElement(w=(1, 0), translation=(2, -2))
        assert g != AffineElement((0, 1), (2, -2))
        assert repr(g) == "AffineElement(w=(1, 0), translation=(2, -2))"
        with pytest.raises(AttributeError):
            g.w = (0, 1)

    def test_orbit_slice(self):
        slice_ = orbit_in_box((1, 0), 2, 1, GL2)
        assert slice_ == OrbitSlice((1, 0), 1, ((1, 0),))
        assert slice_ == OrbitSlice(base=(1, 0), box_radius=1, elements=((1, 0),))
        assert repr(slice_) == (
            "OrbitSlice(base=(1, 0), box_radius=1, elements=((1, 0),))"
        )
        with pytest.raises(AttributeError):
            slice_.elements = ()

    def test_shift_check_result(self):
        result = check_shift_bijection((1, 0), 1, ClassificationContext(GL2, 2, 1), 2)
        assert result == ShiftCheckResult(True, None, 2, 0)
        assert result == ShiftCheckResult(
            ok=True, counterexample=None, orbit_size=2, shift_bound=0
        )
        assert repr(result) == (
            "ShiftCheckResult(ok=True, counterexample=None, orbit_size=2, "
            "shift_bound=0)"
        )
        with pytest.raises(AttributeError):
            result.ok = False
