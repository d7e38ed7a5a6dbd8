"""Membership predicates, decomposition, enumeration, counterexample."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digit_oracle import pr_box_oracle
from polyweight import classify
from polyweight.classify import (
    ClassificationContext,
    CounterexampleReport,
    Decomposition,
    decompose,
    enumerate_Pr,
    go_even_counterexample,
    in_Pr,
    in_x0,
    is_polynomial,
    is_restricted,
    is_simple_polynomial,
    simple_membership,
    weyl_orbit_witness_nonpolynomial,
)
from polyweight.errors import (
    CapExceeded,
    DecompositionUnavailable,
    DimensionMismatch,
    DomainError,
    HypothesisFailure,
    PreconditionError,
)
from polyweight.groups import (
    build_gl,
    build_go_even,
    build_go_odd,
    build_gsp,
    build_levi,
)
from polyweight.functional import phi_ambient
from polyweight.lattice import pair, vec_add, vec_scale, vec_sub

GL2 = build_gl(2)
GL3 = build_gl(3)
GSP4 = build_gsp(4)
GO5 = build_go_odd(5)
LEVI23 = build_levi([2, 3])


def ctx(datum, p, r):
    return ClassificationContext(datum, p, r)


class TestContext:
    def test_rejects_non_prime(self):
        with pytest.raises(DomainError):
            ctx(GL2, 4, 1)

    def test_rejects_non_positive_exponent(self):
        with pytest.raises(DomainError):
            ctx(GL2, 2, 0)

    @pytest.mark.parametrize("p, r", [(3, 1.5), (2.5, 1), (3.0, 1), ("3", 1)])
    def test_rejects_a_modulus_that_is_not_an_integer(self, p, r):
        # (3, 1.5) built a context with prpow = 5.196...
        with pytest.raises(DomainError, match="must be an integer"):
            ctx(GL2, p, r)

    def test_modulus_is_formed_once_and_bounded(self):
        c = ctx(GL2, 3, 2)
        assert vars(c)["prpow"] == 9
        with pytest.raises(DomainError, match="bit_length"):
            ctx(GL2, 3, 10**7)

    def test_rejects_go_even(self):
        with pytest.raises(HypothesisFailure) as err:
            ctx(build_go_even(8), 5, 1)
        assert "(c-lower)" in str(err.value)

    @pytest.mark.parametrize(
        "datum", [GL2, GL3, GSP4, GO5, LEVI23], ids=lambda d: d.spec_string
    )
    @settings(max_examples=50)
    @given(data=st.data())
    def test_coordinate_round_trip(self, datum, data):
        c = ctx(datum, 3, 1)
        lam = data.draw(
            st.tuples(*([st.integers(-9, 9)] * datum.ambient_dim))
        )
        coords = c.coordinates(lam)
        rebuilt = c.from_coordinates(coords)
        assert datum.lattice.equal_mod_kernel(rebuilt, lam)
        assert c.coordinates(rebuilt) == coords
        assert c.x0_coordinates(lam) == coords[c.dual_count:]

    @pytest.mark.parametrize(
        "lifts,message",
        [
            (((1, 1),), "not dual to the simple coroots with a positive pairing"),
            ((), "must have full rank"),
            (((2, 0),), "not unimodular"),
        ],
        ids=["singular", "too-short", "index-two"],
    )
    def test_rejects_a_singular_or_non_unimodular_basis(self, lifts, message):
        # the weight basis is the dual lifts, then GL2's d vector (1, 1)
        datum = GL2._replace(dual_lifts=lifts)
        assert datum.validation().all_ok
        with pytest.raises(DomainError, match=message):
            ctx(datum, 3, 1)

    def test_rejects_a_lift_of_the_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            ctx(GL2._replace(dual_lifts=((1,),)), 3, 1)

    def test_context_does_not_load_fractions(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from polyweight.groups import build_gsp; "
             "from polyweight.classify import ClassificationContext; "
             "ClassificationContext(build_gsp(6), 3, 1); "
             "print('fractions' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_tables_cached(self):
        c = ctx(GSP4, 2, 1)
        assert c.tables() is c.tables()


class TestPolynomial:
    def test_gl2_values(self):
        c = ctx(GL2, 2, 1)
        assert is_polynomial((1, 0), c)
        assert not is_polynomial((0, -1), c)

    def test_gsp4_class_without_nonnegative_representative(self):
        # the only kernel direction is (1,-1,-1,1); fixing coordinate 1
        # needs t >= 1 while coordinate 3 needs t <= 0, so no shift of
        # (-1,2,0,2) is coordinatewise non-negative and the class is not
        # polynomial (the functional value is -1)
        c = ctx(GSP4, 2, 1)
        assert c.phi((-1, 2, 0, 2)) == (-1,)
        assert not is_polynomial((-1, 2, 0, 2), c)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_kernel_shift_oracle_on_gsp4(self, data):
        c = ctx(GSP4, 2, 1)
        lam = data.draw(st.tuples(*([st.integers(-6, 6)] * 4)))
        window = max(lam) - min(lam) + 1
        oracle = any(
            min(vec_add(lam, vec_scale(t, (1, -1, -1, 1)))) >= 0
            for t in range(-window, window + 1)
        )
        assert is_polynomial(lam, c) == oracle


class TestRestricted:
    def test_gl3_frozen(self):
        c = ctx(GL3, 2, 1)
        assert is_restricted((1, 0, 0), c)
        assert not is_restricted((2, 0, 0), c)

    def test_x0_always_restricted(self):
        c = ctx(GL3, 2, 1)
        for t in range(-3, 4):
            assert is_restricted((t, t, t), c)
            assert in_x0((t, t, t), c)

    def test_in_x0_rejects_non_constant(self):
        assert not in_x0((1, 0, 0), ctx(GL3, 2, 1))


class TestCorootDescent:
    def test_a_coroot_that_does_not_descend_is_rejected(self):
        # gsp(4)'s simple roots pair non-trivially with its kernel: a
        # context refuses the datum under (d), and a bare datum at its
        # first pairing
        broken = GSP4._replace(simple_coroots=GSP4.simple_roots)
        with pytest.raises(HypothesisFailure, match=r"hypotheses \(d\)$"):
            ctx(broken, 3, 1)
        with pytest.raises(ValueError, match="not kernel-annihilating"):
            weyl_orbit_witness_nonpolynomial((0,) * 4, (0,) * 4, broken, 3)

    def test_the_orbit_witness_refuses_it_as_a_domain_error(self):
        # a PolyweightError, which the command line exits 3 on, and still
        # the ValueError the test above matches
        broken = GSP4._replace(simple_coroots=GSP4.simple_roots)
        with pytest.raises(DomainError, match="not kernel-annihilating"):
            weyl_orbit_witness_nonpolynomial((0,) * 4, (0,) * 4, broken, 3)
        # the refusal names the datum and its first coroot that fails
        named = r"^gsp:4 fails \(d\): simple coroot 0 "
        with pytest.raises(DomainError, match=named):
            weyl_orbit_witness_nonpolynomial((0,) * 4, (0,) * 4, broken, 3)

    def test_descent_is_checked_once_per_datum(self, monkeypatch):
        datum = build_gsp(4)
        lattice_type = type(datum.lattice)
        original = lattice_type.annihilates
        checked = []

        def annihilates(lattice, covector):
            checked.append(covector)
            return original(lattice, covector)

        monkeypatch.setattr(lattice_type, "annihilates", annihilates)
        c = ctx(datum, 3, 1)
        for weight in itertools.product(range(3), repeat=4):
            is_restricted(weight, c)
            in_x0(weight, c)
            in_Pr(weight, c)
        assert checked == list(datum.simple_coroots)


class TestInPr:
    def test_gl2_frozen(self):
        c = ctx(GL2, 2, 1)
        assert in_Pr((1, 0), c)
        assert not in_Pr((3, 3), c)  # (1, 1) stays polynomial
        assert in_Pr((1, 1), c)

    @pytest.mark.parametrize("prpow,p,r", [(2, 2, 1), (3, 3, 1), (4, 2, 2)])
    def test_gl_closed_form(self, prpow, p, r):
        c = ctx(GL3, p, r)
        bound = prpow - 1
        for lam in itertools.product(range(-2, 2 * prpow + 1), repeat=3):
            closed = (
                0 <= lam[0] - lam[1] <= bound
                and 0 <= lam[1] - lam[2] <= bound
                and 0 <= lam[2] <= bound
            )
            assert in_Pr(lam, c) == closed, lam

    @pytest.mark.parametrize(
        "datum,p,r",
        [(GL2, 2, 1), (GSP4, 2, 1), (GSP4, 3, 1), (GO5, 2, 1)],
        ids=["gl2", "gsp4-p2", "gsp4-p3", "go5"],
    )
    def test_two_descriptions_coincide(self, datum, p, r):
        # the literal shift condition equals the window condition on phi
        c = ctx(datum, p, r)
        step = c.prpow
        for lam in itertools.product(
            range(-step, step + 1), repeat=datum.ambient_dim
        ):
            literal = in_Pr(lam, c)
            window = is_restricted(lam, c) and all(
                0 <= v <= step - 1 for v in c.phi(lam)
            )
            assert literal == window, lam

    @pytest.mark.parametrize(
        "datum", [GL3, GSP4, GO5, LEVI23, build_go_even(8)],
        ids=["gl3", "gsp4", "go5", "levi23", "go8"],
    )
    def test_one_evaluation_matches_the_literal_shifts(self, datum):
        # phi of lam - p^r d, evaluated in full for every d
        rng = random.Random(0)
        for prpow in (2, 3, 5):
            for _ in range(500):
                lam = tuple(
                    rng.randint(-1, 2 * prpow) for _ in range(datum.ambient_dim)
                )
                literal = (
                    min(phi_ambient(lam, datum)) >= 0
                    and all(
                        0 <= pair(lam, c) < prpow for c in datum.simple_coroots
                    )
                    and all(
                        min(phi_ambient(vec_sub(lam, vec_scale(prpow, d)), datum))
                        < 0
                        for d in datum.d_vectors
                    )
                )
                assert classify._in_pr(lam, datum, prpow) == literal, (lam, prpow)

    def test_phi_is_evaluated_once(self, monkeypatch):
        # with 256 one-coordinate blocks, one evaluation per distinguished
        # shift would cost about half a second a call
        c = ctx(build_levi([1] * 256), 3, 1)
        weights = []
        monkeypatch.setattr(
            classify, "phi_ambient",
            lambda w, data: weights.append(w) or phi_ambient(w, data),
        )
        lam = tuple(i % 3 for i in range(256))
        assert in_Pr(lam, c)
        assert weights == [lam]


class TestDecompose:
    def test_gl2_frozen_split(self):
        c = ctx(GL2, 2, 1)
        split = decompose((3, 1), c)
        assert split.lambda0 == (1, 1)
        assert split.lambda_tilde == (1, 0)

    def test_members_split_trivially(self):
        c = ctx(GL2, 2, 1)
        for lam in enumerate_Pr(c):
            split = decompose(lam, c)
            assert split.lambda0 == lam
            assert split.lambda_tilde == (0, 0)

    def test_gl2_negative_tail(self):
        c = ctx(GL2, 2, 1)
        split = decompose((1, -1), c)
        assert split.lambda0 == (1, 1)
        assert split.lambda_tilde == (0, -1)

    @pytest.mark.parametrize(
        "datum,p,r",
        [
            (GL2, 2, 1),
            (GL3, 2, 2),
            (GL3, 3, 1),
            (GSP4, 2, 1),
            (GSP4, 3, 2),
            (LEVI23, 2, 1),
            (LEVI23, 3, 1),
        ],
        ids=["gl2", "gl3-4", "gl3-3", "gsp4-2", "gsp4-9", "levi-2", "levi-3"],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_and_membership(self, datum, p, r, data):
        c = ctx(datum, p, r)
        lam = data.draw(
            st.tuples(*([st.integers(-20, 20)] * datum.ambient_dim))
        )
        split = decompose(lam, c)
        assert in_Pr(split.lambda0, c)
        recombined = vec_add(
            split.lambda0, vec_scale(c.prpow, split.lambda_tilde)
        )
        assert datum.lattice.equal_mod_kernel(recombined, lam)

    def test_go_odd_unreachable_residue(self):
        # the doubled short coroot pairs evenly with every integer class,
        # so a class whose forced digit exceeds (p^r - 1) / 2 has no
        # restricted representative at all
        c = ctx(GO5, 2, 1)
        with pytest.raises(DecompositionUnavailable) as err:
            decompose((0, 1, 0, 0, 0), c)
        assert "no representative" in str(err.value)
        assert simple_membership((0, 1, 0, 0, 0), c) is False

    def test_go_odd_even_residues_decompose(self):
        c = ctx(GO5, 2, 1)
        split = decompose((1, 1, 0, 1, 1), c)
        assert in_Pr(split.lambda0, c)

    def test_simple_polynomial_frozen(self):
        c = ctx(GL2, 2, 1)
        assert is_simple_polynomial((3, 1), c)
        assert not is_simple_polynomial((1, -1), c)
        for lam in enumerate_Pr(c):
            assert is_simple_polynomial(lam, c)


class TestEnumerate:
    def test_gl2_frozen_set(self):
        assert enumerate_Pr(ctx(GL2, 2, 1)) == (
            (0, 0),
            (1, 0),
            (1, 1),
            (2, 1),
        )

    def test_gl1_digits(self):
        assert enumerate_Pr(ctx(build_gl(1), 3, 1)) == ((0,), (1,), (2,))

    def test_candidate_cap_is_checked_before_enumerating(self, monkeypatch):
        # gl(1) at p^r = 3 has 3 candidates: no digit range (no simple
        # coroot) times 3 functional targets
        c = ctx(build_gl(1), 3, 1)
        monkeypatch.setattr(classify, "ENUMERATE_CAP", 3)
        assert enumerate_Pr(c) == ((0,), (1,), (2,))
        monkeypatch.setattr(classify, "ENUMERATE_CAP", 2)
        with pytest.raises(CapExceeded, match=r"p\^r = 3\^1 has more than 2 cand"):
            enumerate_Pr(c)

    def test_a_merged_class_breaks_the_postcondition(self, monkeypatch):
        # the candidates are distinct classes, so the enumeration keeps no
        # set; a canonical form that merges the classes of (1,) and (2,)
        # leaves two equal neighbours, which must raise
        c = ctx(build_gl(1), 3, 1)
        lattice = type(c.datum.lattice)
        canonical = lattice.canonical_rep

        def merging(self, weight):
            return canonical(self, (1,) if tuple(weight) == (2,) else weight)

        monkeypatch.setattr(lattice, "canonical_rep", merging)
        with pytest.raises(AssertionError, match="met a class twice"):
            enumerate_Pr(c)

    @pytest.mark.parametrize(
        "n,p,r", [(1, 2, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)]
    )
    def test_gl_count_is_prpow_to_the_n(self, n, p, r):
        c = ctx(build_gl(n), p, r)
        assert len(enumerate_Pr(c)) == c.prpow ** n

    @pytest.mark.parametrize(
        "datum,p,r",
        [
            (GL2, 2, 1),
            (GL2, 3, 1),
            (GL3, 2, 1),
            (GSP4, 2, 1),
            (GO5, 2, 1),
            (LEVI23, 2, 1),
        ],
        ids=["gl2-2", "gl2-3", "gl3", "gsp4", "go5", "levi23"],
    )
    def test_matches_box_oracle(self, datum, p, r):
        c = ctx(datum, p, r)
        assert enumerate_Pr(c) == pr_box_oracle(c)

    def test_oracle_needs_more_than_twice_the_modulus(self):
        # (9,6,3) is a digit-set member whose minimal representative has a
        # coordinate above 2 p^r, so a box bound of 2 p^r undercounts
        c = ctx(GL3, 2, 2)
        assert in_Pr((9, 6, 3), c)
        assert max((9, 6, 3)) > 2 * c.prpow
        small = pr_box_oracle(c, bound=2 * c.prpow)
        full = pr_box_oracle(c)
        assert len(small) < len(full) == len(enumerate_Pr(c))

    def test_oracle_stable_under_box_growth(self):
        c = ctx(GL2, 2, 2)
        default = pr_box_oracle(c)
        assert pr_box_oracle(c, bound=14) == default


class TestOrbitWitness:
    def test_identity_witness_when_shift_leaves_cone(self):
        w = weyl_orbit_witness_nonpolynomial((1, 1), (0, -1), GL2, 2)
        assert w == (0, 1)

    def test_polynomial_tilde_never_has_witness(self):
        assert weyl_orbit_witness_nonpolynomial((1, 0), (2, 1), GL2, 2) is None

    def test_rejects_base_outside_digit_set(self):
        with pytest.raises(PreconditionError):
            weyl_orbit_witness_nonpolynomial((3, 3), (0, 0), GL2, 2)


class TestGoEvenCounterexample:
    @pytest.mark.parametrize("prpow", [5, 13])
    def test_frozen_values(self, prpow):
        report = go_even_counterexample(prpow)
        assert report.phi_lam0 == (prpow - 1,)
        assert report.phi_lam0_shifted == (-1,)
        assert report.phi_lam_tilde == (-1,)
        assert report.witness is None
        assert report.weyl_order == 192

    def test_base_weight_shape(self):
        report = go_even_counterexample(5)
        assert report.lam0 == (2, 2, 2, 2, 1, 1, 1, 1)
        assert report.lam_tilde == (0, 0, 0, 0, 1, 1, -1, 1)

    @pytest.mark.parametrize("prpow", [2, 3, 4, 7, 11])
    def test_gate_rejects_wrong_residue(self, prpow):
        with pytest.raises(PreconditionError):
            go_even_counterexample(prpow)

    @pytest.mark.parametrize("prpow", [1, 21, 45])
    def test_gate_rejects_a_modulus_that_is_not_a_prime_power(self, prpow):
        # 21 and 45 leave residue 1 mod 4, so only the prime-power rule
        # refuses them
        with pytest.raises(PreconditionError, match="needs a prime power"):
            go_even_counterexample(prpow)

    def test_gate_refuses_a_huge_modulus_at_once(self):
        with pytest.raises(DomainError, match="bit_length"):
            go_even_counterexample(2**12288 + 1)

    @pytest.mark.parametrize("prpow", [5.0, Fraction(5), "5"])
    def test_gate_refuses_a_modulus_that_is_not_an_integer(self, prpow):
        with pytest.raises(DomainError, match="p\\^r must be an integer"):
            go_even_counterexample(prpow)


class TestRecords:
    """Construction, repr, equality and immutability of the records."""

    def test_context(self):
        by_position = ClassificationContext(GL2, 3, 1)
        by_keyword = ClassificationContext(datum=GL2, p=3, r=1)
        assert by_position == by_keyword
        assert by_position != ClassificationContext(GL2, 3, 2)
        assert by_position != ClassificationContext(GL2, 2, 1)
        by_position.tables()
        assert by_position._cache and not by_keyword._cache
        assert by_position == by_keyword
        assert repr(by_position) == f"ClassificationContext(datum={GL2!r}, p=3, r=1)"
        assert "_cache" not in repr(by_position)
        with pytest.raises(TypeError):
            hash(by_position)

    def test_decomposition(self):
        split = decompose((4, 0), ctx(GL2, 3, 1))
        assert split == Decomposition((1, 0), (1, 0))
        assert split == Decomposition(lambda0=(1, 0), lambda_tilde=(1, 0))
        assert repr(split) == "Decomposition(lambda0=(1, 0), lambda_tilde=(1, 0))"
        with pytest.raises(AttributeError):
            split.lambda0 = (0, 0)

    def test_counterexample_report(self):
        report = go_even_counterexample(5)
        values = (
            5,
            (2, 2, 2, 2, 1, 1, 1, 1),
            (0, 0, 0, 0, 1, 1, -1, 1),
            (4,),
            (-1,),
            (-1,),
            None,
            192,
        )
        assert report == CounterexampleReport(*values)
        assert report == CounterexampleReport(
            prpow=5,
            lam0=values[1],
            lam_tilde=values[2],
            phi_lam0=(4,),
            phi_lam0_shifted=(-1,),
            phi_lam_tilde=(-1,),
            witness=None,
            weyl_order=192,
        )
        assert repr(report) == (
            "CounterexampleReport(prpow=5, lam0=(2, 2, 2, 2, 1, 1, 1, 1), "
            "lam_tilde=(0, 0, 0, 0, 1, 1, -1, 1), phi_lam0=(4,), "
            "phi_lam0_shifted=(-1,), phi_lam_tilde=(-1,), witness=None, "
            "weyl_order=192)"
        )
        with pytest.raises(AttributeError):
            report.witness = ()
