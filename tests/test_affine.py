"""Dot-action, orbit slices, shift bound, and the shift-bijection check.

The library decides orbits by invariant keys; ``orbit_oracle`` keeps
the W scan, which these tests compare them with.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from orbit_oracle import (
    dot_orbit,
    gl_closed_bound,
    gl_closed_slice,
    rho_shift,
    scan_bound,
    scan_slice,
    translation_span,
    twist,
)

from polyweight import affine
from polyweight.affine import (
    OrbitSlice,
    ShiftCheckResult,
    check_shift_bijection,
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
from polyweight.groups import (
    GroupDatum,
    build_gl,
    build_go_odd,
    build_gsp,
    build_levi,
    parse_group_spec,
)
from polyweight.lattice import vec_add, vec_scale, vec_sub
from polyweight.weyl import act, compose, identity_perm

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


def count_scans(monkeypatch):
    """Count the calls of ``affine._orbit_scan``, each a box scan."""
    calls = Counter()

    def counted(*args, _compute=affine._orbit_scan):
        calls["_orbit_scan"] += 1
        return _compute(*args)

    monkeypatch.setattr(affine, "_orbit_scan", counted)
    return calls


def list_no_weyl_group(monkeypatch):
    """Make every ``weyl_group()`` call fail the test."""

    def refuse(self):
        raise AssertionError(f"{self.spec_string} listed its Weyl group")

    monkeypatch.setattr(GroupDatum, "weyl_group", refuse)


def same_class(lam, p, datum):
    """Another weight of lam's class modulo p times the roots plus the kernel."""
    other = vec_add(lam, vec_scale(p, datum.simple_roots[0]))
    for vec in datum.lattice.kernel_basis:
        other = vec_add(other, vec)
    return other


def orbit_oracle(lam, p, radius, datum):
    """Independent orbit scan: test every box point against the system."""
    n = datum.ambient_dim
    gens = [tuple(p * c for c in root) for root in datum.simple_roots]
    gens += list(datum.lattice.kernel_basis)
    in_span = integer_span_test(gens, n)
    bases = [twist(w, lam, datum) for w in datum.weyl_group()]
    out = set()
    for x in itertools.product(range(-radius, radius + 1), repeat=n):
        if any(in_span(vec_sub(x, b)) for b in bases):
            out.add(datum.lattice.canonical_rep(x))
    return tuple(sorted(out))


class TestDotAction:
    """The premises of the W scan in ``orbit_oracle``."""

    def test_gl2_frozen_values(self):
        # the dot images of (1, 0) are itself and s.(1, 0) = (-1, 2), and
        # the translations by 2(1, -1) carry each to its class
        assert twist((0, 1), (1, 0), GL2) == (1, 0)
        assert twist((1, 0), (1, 0), GL2) == (-1, 2)
        span = translation_span(GL2, 2)
        assert dot_orbit((1, 0), 2, GL2) == {
            span.canonical_rep((1, 0)),
            span.canonical_rep((-1, 2)),
        }
        assert dot_orbit((3, -2), 2, GL2) == dot_orbit((1, 0), 2, GL2)

    def test_rho_shift_of_identity_is_zero(self):
        for datum in (GL2, GL3, GSP4, GO5, LEVI23):
            e = identity_perm(datum.ambient_dim)
            assert rho_shift(e, datum) == (0,) * datum.ambient_dim

    @pytest.mark.parametrize("datum", [GL2, GL3], ids=["gl2", "gl3"])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_action_composition_ambient(self, datum, data):
        # w.(v.lam) = (wv).lam, the premise that makes the base forms of
        # ``dot_orbit`` one orbit; exact where the kernel is trivial
        W = datum.weyl_group()
        w, v = data.draw(st.sampled_from(W)), data.draw(st.sampled_from(W))
        lam = data.draw(weights(datum))
        lhs = twist(w, twist(v, lam, datum), datum)
        assert lhs == twist(compose(w, v), lam, datum)

    @pytest.mark.parametrize("datum", [GSP4, GO5], ids=["gsp4", "go5"])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_action_composition_mod_kernel(self, datum, data):
        # permutation realizations of reflections are exact only up to the
        # kernel, so composition holds as classes
        W = datum.weyl_group()
        w, v = data.draw(st.sampled_from(W)), data.draw(st.sampled_from(W))
        lam = data.draw(weights(datum))
        lhs = twist(w, twist(v, lam, datum), datum)
        rhs = twist(compose(w, v), lam, datum)
        assert datum.lattice.equal_mod_kernel(lhs, rhs)

    def test_rho_shift_consistent_with_two_rho_class(self):
        for datum in (GL2, GSP4, GO5, LEVI23):
            two_rho = datum.positive_root_sum_twice
            for w in datum.weyl_group():
                moved = vec_sub(act(w, two_rho), two_rho)
                doubled = tuple(2 * c for c in rho_shift(w, datum))
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
        "datum,lam,radius,p",
        [
            # p = 2 keeps the bare case name
            pytest.param(datum, lam, radius, p, id=name + (f"-p{p}" if p > 2 else ""))
            for datum, lam, radius, name in [
                (GL2, (0, 1), 4, "gl2-a"),
                (GL2, (-2, 3), 4, "gl2-b"),
                (GL3, (1, 0, 1), 3, "gl3"),
                (GSP4, (1, 0, 0, 0), 2, "gsp4-a"),
                (GSP4, (2, 1, 0, 1), 2, "gsp4-b"),
                (GO5, (1, 1, 0, 1, 0), 2, "go5"),
                (LEVI23, (1, 0, 0, 1, 0), 2, "levi23"),
            ]
            for p in (2, 3, 5)
        ],
    )
    def test_matches_linear_solve_oracle(self, datum, lam, radius, p):
        got = orbit_in_box(lam, p, radius, datum).elements
        assert got == orbit_oracle(lam, p, radius, datum)

    def test_orbit_elements_are_canonical(self):
        slice_ = orbit_in_box((1, 0, 0, 1), 2, 2, GSP4)
        lat = GSP4.lattice
        for mu in slice_.elements:
            assert lat.canonical_rep(mu) == mu

    def test_dot_images_of_base_appear(self):
        lam = (1, 0)
        elements = set(orbit_in_box(lam, 2, 6, GL2).elements)
        for w in GL2.weyl_group():
            moved = twist(w, lam, GL2)
            if max(abs(c) for c in moved) <= 6:
                assert GL2.lattice.canonical_rep(moved) in elements

    def test_box_past_the_cap_is_refused_before_the_scan(self, monkeypatch):
        # gl(3) boxes of radius 1 and 2 hold 27 and 125 points
        monkeypatch.setattr(affine, "ORBIT_BOX_CAP", 27)
        assert orbit_in_box((1, 0, 1), 2, 1, GL3).elements
        with pytest.raises(CapExceeded, match="more than 27 points"):
            orbit_in_box((1, 0, 1), 2, 2, GL3)

    def test_a_4300_digit_radius_is_refused_at_once(self):
        # the box volume (2R+1)^2048 is decided on bit lengths before a
        # power is formed; forming it took 6.6 s
        datum = build_gl(2_048)
        radius = 10**4_299
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"radius {radius} in dimension 2048"):
            orbit_in_box((0,) * 2_048, 3, radius, datum)
        assert time.perf_counter() - start < 0.5

    def test_a_negative_radius_is_refused(self):
        # the radius rule of functional._box, where an empty slice would do
        for datum, lam in ((GL2, (1, 0)), (GL3, (1, 0, 1))):
            with pytest.raises(DomainError, match="box radius"):
                orbit_in_box(lam, 2, -1, datum)

    def test_a_radius_that_is_not_an_integer_is_refused(self):
        # R = 2.5 walked half-integer points and found an empty slice
        with pytest.raises(DomainError, match="box radius must be an integer"):
            orbit_in_box((0, 0), 3, 2.5, GL2)

    @pytest.mark.parametrize("p", [2.5, 0, 4, -3])
    def test_a_modulus_that_is_not_a_prime_is_refused(self, p):
        with pytest.raises(DomainError, match="p must be"):
            orbit_in_box((0, 0), p, 1, GL2)

    def test_radius_zero_is_the_origin(self):
        assert orbit_in_box((0, 0), 2, 0, GL2).elements == ((0, 0),)
        assert orbit_in_box((1, 0), 2, 0, GL2).elements == ()

    def test_another_weight_of_the_orbit_scans_no_box(self, monkeypatch):
        # the slice is kept per prime, radius and orbit key, so a second
        # weight of the orbit reads it
        datum = build_gsp(4)
        calls = count_scans(monkeypatch)
        lam = (1, 0, 0, 0)
        first = orbit_in_box(lam, 2, 2, datum)
        assert calls["_orbit_scan"] == 1
        w = datum.weyl_group()[-1]
        other = twist(w, lam, datum)
        assert datum.lattice.canonical_rep(other) != datum.lattice.canonical_rep(lam)
        assert orbit_in_box(other, 2, 2, datum).elements is first.elements
        assert calls["_orbit_scan"] == 1

    @pytest.mark.parametrize(
        "datum, p, lam",
        [
            # fresh data, so no other test has filled their caches
            (build_gl(7), 11, (0,) * 7),
            (build_gsp(4), 3, (1, 0, 0, 0)),
            (build_go_odd(5), 5, (1, 0, 0, 0, 0)),
        ],
        ids=lambda v: getattr(v, "spec_string", None),
    )
    def test_a_weight_of_a_seen_class_twists_nothing(self, datum, p, lam, monkeypatch):
        # the key is constant on classes modulo p times the roots plus the
        # kernel, so a repeat, or another weight of the class, reads the
        # slice without a scan, and no slice lists W
        list_no_weyl_group(monkeypatch)
        first = orbit_in_box(lam, p, 1, datum)
        calls = count_scans(monkeypatch)
        for weight in (lam, same_class(lam, p, datum)):
            assert orbit_in_box(weight, p, 1, datum).elements is first.elements
        assert calls["_orbit_scan"] == 0
        assert orbit_in_box(lam, p, 2, datum).elements
        assert calls["_orbit_scan"] == 1

    @pytest.mark.parametrize("spec", ["gl:4", "gsp:6", "go:7", "go:8", "levi:1,2,3"])
    def test_the_weyl_group_keeps_the_translation_span(self, spec):
        # the premise of the W scan's reduced forms: each generator maps p
        # times the roots plus the kernel into itself
        datum = parse_group_spec(spec)
        for p in (2, 3, 5):
            span = translation_span(datum, p)
            basis = [vec_scale(p, root) for root in datum.simple_roots]
            basis += datum.lattice.kernel_basis
            for g in datum.weyl_generators:
                assert all(span.contains(act(g, t)) for t in basis)


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
            best = max(best, c.x0_coordinates(twist(w, (1, 1, 0), datum))[0] % 3)
        assert shift_bound_a((1, 1, 0), c) == best == 2

    @pytest.mark.parametrize(
        "spec",
        ["gl:2", "gl:3", "gl:4", "gl:5", "gsp:4", "gsp:6", "go:3", "go:5", "go:7"],
    )
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_the_unreduced_twist_over_w(self, spec, p):
        # the bound as first defined: the largest x0 coordinate mod p of
        # w.lam + half(w(2rho) - 2rho), unreduced, over all of W
        datum = parse_group_spec(spec)
        c = ClassificationContext(datum, p, 1)
        rng = random.Random(f"{spec}-{p}")
        for _ in range(6):
            lam = tuple(rng.randint(-6, 6) for _ in range(datum.ambient_dim))
            expected = max(
                c.x0_coordinates(twist(w, lam, datum))[0] % p
                for w in datum.weyl_group()
            )
            assert shift_bound_a(lam, c) == expected

    @pytest.mark.parametrize(
        "spec, lam", [("gl:4", (2, 0, -1, 3)), ("go:5", (1, 0, 2, 0, -1))]
    )
    def test_a_weight_of_a_seen_class_passes_w_no_more(self, spec, lam, monkeypatch):
        # the bound is a closed form of the class modulo p times the roots
        # plus the kernel: equal on the class, and with no pass over W
        datum = parse_group_spec(spec)
        c = ClassificationContext(datum, 5, 1)
        expected = scan_bound(dot_orbit(lam, 5, datum), c)
        list_no_weyl_group(monkeypatch)
        a = shift_bound_a(lam, c)
        assert shift_bound_a(same_class(lam, 5, datum), c) == a == expected

    def test_needs_rank_one_distinguished_part(self):
        c = ClassificationContext(LEVI23, 2, 1)
        with pytest.raises(DomainError):
            shift_bound_a((1, 0, 0, 0, 0), c)


# Every built-in spec with |W| <= 5,040, bar go_even, which is refused: all
# of gl, gsp and odd go, and the Levi shapes of up to five coordinates with
# four more of six and seven.
SCAN_SPECS = (
    [f"gl:{n}" for n in range(1, 8)]
    + [f"gsp:{n}" for n in range(2, 11, 2)]
    + [f"go:{n}" for n in range(3, 12, 2)]
    + [
        "levi:" + ",".join(map(str, parts))
        for n in range(1, 6)
        for k in range(1, n + 1)
        for parts in itertools.product(range(1, n + 1), repeat=k)
        if sum(parts) == n
    ]
    + ["levi:2,2,2", "levi:1,2,3", "levi:3,4", "levi:4,3"]
)
SCAN_PRIMES = (2, 3, 5, 7)
SCAN_RADII = (1, 2)
# Largest box whose slice is compared point by point; larger boxes have
# their keys compared on sampled points
SCAN_BOX_LIMIT = 6_561


def _span_member(datum, p, rng):
    """A random vector of p times the roots plus the kernel."""
    out = (0,) * datum.ambient_dim
    for gen in [vec_scale(p, r) for r in datum.simple_roots] + list(
        datum.lattice.kernel_basis
    ):
        out = vec_add(out, vec_scale(rng.randint(-2, 2), gen))
    return out


class TestInvariantsAgainstTheScan:
    """The keys, slices and bounds of ``affine`` against the W scan."""

    @pytest.mark.parametrize("spec", SCAN_SPECS)
    def test_keys_slices_and_bounds_match_the_scan(self, spec):
        datum = parse_group_spec(spec)
        n = datum.ambient_dim
        assert len(datum.weyl_group()) <= 5_040
        family = affine._family(datum)
        rng = random.Random(spec)
        group = datum.weyl_group()
        for p in SCAN_PRIMES:
            span = translation_span(datum, p)
            ctx = ClassificationContext(datum, p, 1)
            for _ in range(2):
                lam = tuple(rng.randint(-3, 3) for _ in range(n))
                forms = dot_orbit(lam, p, datum)
                key = affine._orbit_key(lam, p, datum, family)
                members = [
                    vec_add(twist(rng.choice(group), lam, datum),
                            _span_member(datum, p, rng))
                    for _ in range(12)
                ]
                others = [tuple(rng.randint(-4, 4) for _ in range(n))
                          for _ in range(12)]
                others += [vec_add(x, (1,) + (0,) * (n - 1)) for x in members]
                for x in members + others:
                    in_orbit = span.canonical_rep(x) in forms
                    assert (affine._orbit_key(x, p, datum, family) == key) == in_orbit
                    if x in members:
                        assert in_orbit
                for radius in SCAN_RADII:
                    if (2 * radius + 1) ** n <= SCAN_BOX_LIMIT:
                        points = itertools.product(range(-radius, radius + 1), repeat=n)
                        assert orbit_in_box(lam, p, radius, datum).elements == (
                            scan_slice(forms, p, datum, points)
                        )
                if datum.x0_rank == 1:
                    assert shift_bound_a(lam, ctx) == scan_bound(forms, ctx)

    @pytest.mark.parametrize("two_l", [4, 6, 8])
    def test_gsp_at_p_2_needs_the_sum_of_u_mod_4(self, two_l):
        # u_i = x_i - x_i' + (l - i): lam has every u_i = 2(l - i) even, and
        # moving 1 from x_0' to x_0 keeps s and u mod 2 but adds 2 to sum(u)
        l = two_l // 2
        datum = build_gsp(two_l)
        lam = tuple(range(l, 0, -1)) + (0,) * l
        other = vec_add(lam, (1,) + (0,) * (two_l - 2) + (-1,))
        keys = [affine._orbit_key(x, 2, datum, "gsp") for x in (lam, other)]
        assert keys[0][:2] == keys[1][:2] and keys[0] != keys[1]
        span = translation_span(datum, 2)
        assert span.canonical_rep(other) not in dot_orbit(lam, 2, datum)

    @pytest.mark.parametrize("spec", ["go:4", "go:6", "go:8"])
    def test_go_even_is_refused(self, spec):
        datum = parse_group_spec(spec)
        assert datum.family == "go_even"
        with pytest.raises(DomainError, match="no dot-orbit invariant for the go_even"):
            orbit_in_box((0,) * datum.ambient_dim, 3, 1, datum)

    def test_a_replaced_datum_is_refused_by_every_orbit_function(self):
        # reversed generators give the same group, so the datum validates
        # and takes a context, but it is not the built-in gl:3
        datum = GL3._replace(weyl_generators=GL3.weyl_generators[::-1])
        assert datum.family == "gl" and datum != GL3
        ctx = ClassificationContext(datum, 3, 1)
        message = "no dot-orbit invariant for the gl datum gl:3"
        with pytest.raises(DomainError, match=message):
            orbit_in_box((0, 0, 0), 3, 1, datum)
        with pytest.raises(DomainError, match=message):
            shift_bound_a((0, 0, 0), ctx)
        with pytest.raises(DomainError, match=message):
            check_shift_bijection((0, 0, 0), 1, ctx, 1)

    def test_the_gate_reads_the_builders_mark(self):
        # the gate is provenance, not equality: a copy equal field for
        # field to the built-in gsp:6, by _replace or by hand, is refused
        datum = build_gsp(6)
        copies = [
            datum._replace(),
            GroupDatum(*(getattr(datum, name) for name in datum._fields)),
        ]
        assert copies == [datum, datum]
        orbit_in_box((0,) * 6, 5, 1, datum)
        for copy in copies:
            with pytest.raises(DomainError, match="for the gsp datum gsp:6"):
                orbit_in_box((0,) * 6, 5, 1, copy)

    def test_the_reach_set_counts_against_the_box_cap(self, monkeypatch):
        # gsp:12's bound at p = 29 reaches subset sums one u at a time
        datum = build_gsp(12)
        ctx = ClassificationContext(datum, 29, 1)
        lam = (0,) * 12
        a = shift_bound_a(lam, ctx)
        monkeypatch.setattr(affine, "ORBIT_BOX_CAP", 8)
        with pytest.raises(CapExceeded, match="more than 8 subset sums"):
            shift_bound_a(lam, ctx)
        monkeypatch.setattr(affine, "ORBIT_BOX_CAP", 1_000_000)
        assert shift_bound_a(lam, ctx) == a


class TestLargeGl:
    """gl:9 and gl:10 answer: their W is past ``weyl.WEYL_CAP``."""

    @pytest.mark.parametrize("n", [9, 10])
    def test_slices_and_bounds_match_the_closed_form(self, n, monkeypatch):
        datum = build_gl(n)
        ctx = ClassificationContext(datum, 11, 1)
        list_no_weyl_group(monkeypatch)
        rng = random.Random(n)
        zero = (0,) * n
        for lam in (zero, tuple(rng.randint(-1, 1) for _ in range(n))):
            assert orbit_in_box(lam, 11, 1, datum).elements == (
                gl_closed_slice(lam, 11, 1)
            )
            assert shift_bound_a(lam, ctx) == gl_closed_bound(lam, 11)
        result = check_shift_bijection(zero, 1, ctx, 1)
        assert result.shift_bound == gl_closed_bound(zero, 11) == n - 1
        assert result.orbit_size == len(gl_closed_slice(zero, 11, 1))


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

    def test_a_radius_that_is_not_an_integer_is_refused(self):
        # R = 2.5 answered ok with an empty orbit, where R = 2 finds three
        c = ClassificationContext(GL2, 3, 1)
        assert check_shift_bijection((0, 0), 1, c, 2).orbit_size == 3
        for i in (1, 0):
            with pytest.raises(DomainError, match="box radius must be an integer"):
                check_shift_bijection((0, 0), i, c, 2.5)

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
