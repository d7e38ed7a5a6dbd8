"""The block-minimum functional, its structural properties, and the box
certificate of ``polyweight.certify``."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyweight.certify import (
    AssumptionReport,
    PropertyVerdict,
    _block_kernel,
    _shift_exists,
    check_assumption,
    default_box_radius,
    find_witness_w,
    kernel_block_constancy,
)
from polyweight.classify import weyl_orbit_witness_nonpolynomial
from polyweight.errors import DomainError, HypothesisFailure, PreconditionError
from polyweight.functional import phi, phi_ambient
from polyweight.groups import (
    build_gl,
    build_go_even,
    build_go_odd,
    build_gsp,
    build_levi,
)
from polyweight.lattice import vec_add, vec_scale
from polyweight.weyl import act

GL2 = build_gl(2)
GL3 = build_gl(3)
GSP4 = build_gsp(4)
GO5 = build_go_odd(5)
LEVI23 = build_levi([2, 3])
GOE8 = build_go_even(8)

FAMILIES = [GL2, GL3, GSP4, GO5, LEVI23]


def weights(datum, bound=12):
    return st.tuples(
        *([st.integers(-bound, bound)] * datum.ambient_dim)
    )


class TestFrozenValues:
    def test_gl3_all_ones(self):
        assert phi_ambient((1, 1, 1), GL3) == (1,)

    def test_gsp4_mixed(self):
        # min{1,1} + min{2,0} = 1
        assert phi_ambient((1, 2, 0, 1), GSP4) == (1,)

    def test_go5_doubled_pairs(self):
        # 2*min{1,3} + 2*min{0,1} + 2 = 4
        assert phi_ambient((1, 0, 2, 1, 3), GO5) == (4,)

    def test_gl2_simple_min(self):
        assert phi((3, 1), GL2) == (1,)

    def test_gsp4_class_invariance(self):
        assert phi((2, 0, -1, 2), GSP4) == phi((1, 1, 0, 1), GSP4) == (1,)

    def test_zero_maps_to_zero(self):
        for datum in FAMILIES:
            zero = (0,) * datum.ambient_dim
            assert phi(zero, datum) == (0,) * datum.x0_rank

    def test_levi_componentwise_minima(self):
        assert phi_ambient((2, 5, -1, 0, 3), LEVI23) == (2, -1)

    def test_quotient_semantics_rejects_go_even(self):
        with pytest.raises(HypothesisFailure):
            phi((1,) * 8, GOE8)


@pytest.mark.parametrize("datum", FAMILIES, ids=lambda d: d.spec_string)
class TestStructuralProperties:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_kernel_invariance(self, datum, data):
        lam = data.draw(weights(datum))
        shifted = lam
        for k in datum.lattice.kernel_basis:
            shifted = vec_add(
                shifted, vec_scale(data.draw(st.integers(-4, 4)), k)
            )
        assert phi_ambient(shifted, datum) == phi_ambient(lam, datum)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_nonnegative_homogeneity(self, datum, data):
        lam = data.draw(weights(datum))
        c = data.draw(st.integers(0, 9))
        assert phi_ambient(vec_scale(c, lam), datum) == tuple(
            c * v for v in phi_ambient(lam, datum)
        )

    @settings(max_examples=60)
    @given(data=st.data())
    def test_superadditivity(self, datum, data):
        lam = data.draw(weights(datum))
        mu = data.draw(weights(datum))
        combined = phi_ambient(vec_add(lam, mu), datum)
        split = [
            a + b
            for a, b in zip(phi_ambient(lam, datum), phi_ambient(mu, datum))
        ]
        assert all(c >= s for c, s in zip(combined, split))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_distinguished_shift_linearity(self, datum, data):
        # the d weights are picked up with coefficient exactly one
        lam = data.draw(weights(datum))
        coeffs = [
            data.draw(st.integers(-6, 6)) for _ in range(datum.x0_rank)
        ]
        shifted = lam
        for c, d in zip(coeffs, datum.d_vectors):
            shifted = vec_add(shifted, vec_scale(c, d))
        assert phi_ambient(shifted, datum) == tuple(
            v + c for v, c in zip(phi_ambient(lam, datum), coeffs)
        )

    @settings(max_examples=40)
    @given(data=st.data())
    def test_weyl_invariance(self, datum, data):
        lam = data.draw(weights(datum))
        w = data.draw(st.sampled_from(datum.weyl_group()))
        assert phi_ambient(act(w, lam), datum) == phi_ambient(lam, datum)


class TestFindWitness:
    def test_gl2_swap(self):
        w = find_witness_w((0, 5), (7, 1), GL2)
        assert w == (1, 0)
        moved = vec_add(act(w, (0, 5)), (7, 1))
        assert phi(moved, GL2) == (0 + 1,)

    def test_constant_second_argument_gives_identity(self):
        # a block-constant partner leaves every position minimal, so the
        # tie-break keeps the identity
        assert find_witness_w((5, -3), (2, 2), GL2) == (0, 1)
        assert find_witness_w((4, 1, 0, 4), (1, 1, 1, 1), GSP4) == (0, 1, 2, 3)

    def test_gsp4_example(self):
        lam, lamp = (3, 0, 2, 1), (0, 4, 1, 2)
        w = find_witness_w(lam, lamp, GSP4)
        left = phi(vec_add(act(w, lam), lamp), GSP4)
        assert left == tuple(
            a + b for a, b in zip(phi(lam, GSP4), phi(lamp, GSP4))
        )

    @pytest.mark.parametrize("datum", FAMILIES, ids=lambda d: d.spec_string)
    @settings(max_examples=80)
    @given(data=st.data())
    def test_postcondition_everywhere(self, datum, data):
        lam = data.draw(weights(datum, bound=8))
        lamp = data.draw(weights(datum, bound=8))
        w = find_witness_w(lam, lamp, datum)
        assert w in datum.weyl_group()
        got = phi(vec_add(act(w, lam), lamp), datum)
        want = tuple(
            a + b for a, b in zip(phi(lam, datum), phi(lamp, datum))
        )
        assert got == want

    def test_go_even_rejected(self):
        with pytest.raises(HypothesisFailure):
            find_witness_w((1,) * 8, (0,) * 8, GOE8)


class TestKernelBlockConstancy:
    def test_gsp4_generator(self):
        assert kernel_block_constancy((1, -1, -1, 1), GSP4)

    def test_zero(self):
        assert kernel_block_constancy((0, 0, 0, 0), GSP4)

    def test_go5_basis(self):
        for k in GO5.lattice.kernel_basis:
            assert kernel_block_constancy(k, GO5)

    def test_all_family_kernel_combinations(self):
        for datum in FAMILIES:
            basis = datum.lattice.kernel_basis
            for coeffs in itertools.product((-2, 0, 1, 3), repeat=len(basis)):
                mu = (0,) * datum.ambient_dim
                for c, k in zip(coeffs, basis):
                    mu = vec_add(mu, vec_scale(c, k))
                assert kernel_block_constancy(mu, datum)

    def test_non_kernel_input_rejected(self):
        with pytest.raises(PreconditionError):
            kernel_block_constancy((1, 0, 0, 0), GSP4)


class TestCheckAssumption:
    def test_gl2_radius3(self):
        report = check_assumption(GL2, 2, 1, box_radius=3)
        assert report.all_ok
        names = [v.name for v in report.properties]
        assert names == [
            "positivity",
            "homogeneity",
            "additivity_witness",
            "x0_bijection",
        ]
        assert all(v.checked > 0 for v in report.properties)

    def test_gsp4_radius2(self):
        report = check_assumption(GSP4, 2, 1, box_radius=2)
        assert report.all_ok
        pairs = next(
            v for v in report.properties if v.name == "additivity_witness"
        )
        assert pairs.checked == 5 ** 4 * 5 ** 4

    def test_go_even_skips_witness_property(self):
        report = check_assumption(GOE8, 5, 1, box_radius=1)
        witness_prop = next(
            v for v in report.properties if v.name == "additivity_witness"
        )
        assert witness_prop.skipped
        assert "(c-lower)" in witness_prop.witness
        others = [
            v for v in report.properties if v.name != "additivity_witness"
        ]
        assert all(v.ok for v in others)
        assert report.all_ok  # skipped entries do not block the verdict

    @pytest.mark.parametrize(
        "p,r,message", [(4, 1, "prime"), (3, 0, "positive"), (3, 10**7, "bit_length")]
    )
    def test_rejects_a_bad_modulus(self, p, r, message):
        with pytest.raises(DomainError, match=message):
            check_assumption(GL2, p, r, box_radius=1)


class TestShiftOracle:
    """The positivity oracle searches unbounded shift coefficients."""

    def test_gsp16_needs_a_coefficient_past_the_window(self):
        # the block minima of (-1, -1, -1, -1, 1, ..., 1, -1, -1, -1, -1):
        # spread 2 plus radius 1 allows coefficients up to 3, and the
        # shift (1, 2, 3, 4, 3, 2, 1) maps the weight to 0
        cols = _block_kernel(build_gsp(16))
        mins = (-1, -1, -1, -1, 1, 1, 1, 1)
        assert _shift_exists(mins, cols)
        shift = (1, 2, 3, 4, 3, 2, 1)
        assert [
            m + sum(c * col[b] for c, col in zip(shift, cols))
            for b, m in enumerate(mins)
        ] == [0] * 8

    def test_no_shift(self):
        # gsp(4): every shift keeps the sum of the two block minima
        assert not _shift_exists((-1, 0), _block_kernel(GSP4))

    @pytest.mark.parametrize(
        "mins,cols",
        [
            # each block constraint holds two unbounded coefficients
            ((-1, 1), [(1, -1), (-1, 1)]),
            # c_1 >= 0, c_2 >= c_1 + 1 and c_1 >= c_2 + 1: narrowing the
            # lower bounds in turn would never end
            ((-1, -1, 0), [(1, -1, 1), (-1, 1, 0)]),
        ],
    )
    def test_unbounded_ranges_are_a_domain_error(self, mins, cols):
        with pytest.raises(DomainError, match="unbounded"):
            _shift_exists(mins, cols)


def test_default_box_radius():
    assert default_box_radius(2) == 3
    assert default_box_radius(4) == 3
    assert default_box_radius(5) == 2
    assert default_box_radius(8) == 2


# One hand-built datum per shape rule the functional reads a datum by:
# the rule's witness, and every witness validation reports
SHAPE_FAULTS = [
    ("repeat", build_levi([1, 1])._replace(blocks=((0,), (0,))),
     "(b): the blocks do not partition the indices",
     ("(b): support of b[1] differs from block 1",
      "(b): the blocks do not partition the indices")),
    ("gap", build_levi([1, 2])._replace(blocks=((0,), (2,))),
     "(b): the blocks do not partition the indices",
     ("(b): support of b[1] differs from block 1",
      "(b): the blocks do not partition the indices")),
    # an index past the ambient dimension is reported, never read
    ("out-of-range", GSP4._replace(blocks=((0, 3), (1, 7))),
     "(b): the blocks do not partition the indices",
     ("(b): support of b[1] differs from block 1",
      "(b): the blocks do not partition the indices")),
    ("row-length", GL2._replace(n_matrix=((1, 1),)),
     "(d): expansion of b[0] has length 2, not the d-list length 1",
     ("(d): expansion of b[0] has length 2, not the d-list length 1",)),
    ("negative", GL2._replace(n_matrix=((-1,),)),
     "(d): expansion of b[0] has a negative coefficient",
     ("(d): expansion of b[0] has a negative coefficient",
      "(d): b[0] does not expand over the d classes")),
    ("row-count", build_levi([1, 1])._replace(n_matrix=((1, 0),)),
     "(d): n-matrix row count 1 differs from block count 2",
     ("(d): n-matrix row count 1 differs from block count 2",)),
    ("d-index", GSP4._replace(d_indices=(5,)),
     "(d): d index 5 names no row of the 2 block indicators",
     ("(d): d index 5 names no row of the 2 block indicators",)),
]


@pytest.mark.parametrize(
    "datum,fault,witnesses",
    [case[1:] for case in SHAPE_FAULTS],
    ids=[case[0] for case in SHAPE_FAULTS],
)
def test_a_shape_fault_is_reported_and_refused(datum, fault, witnesses):
    report = datum.validation()
    assert report.witnesses == witnesses
    assert report.failed == (fault.partition(":")[0],)
    # the entry points that evaluate the functional without a full
    # validation refuse the datum, naming the rule
    zero = (0,) * datum.ambient_dim
    message = re.escape(f"fails {fault};")
    with pytest.raises(DomainError, match=message):
        check_assumption(datum, 3, 1, box_radius=1)
    with pytest.raises(DomainError, match=message):
        find_witness_w(zero, zero, datum)
    with pytest.raises(DomainError, match=message):
        weyl_orbit_witness_nonpolynomial(zero, zero, datum, 3)


class TestRecords:
    """Construction, repr, equality and immutability of the records."""

    def test_property_verdict(self):
        verdict = PropertyVerdict("homogeneity", True, 27)
        assert verdict.witness == ""
        assert verdict.skipped is False
        assert verdict.evaluated == 0
        assert verdict == PropertyVerdict(
            name="homogeneity", ok=True, checked=27, witness="", skipped=False,
            evaluated=0,
        )
        assert verdict != PropertyVerdict("homogeneity", True, 27, "w")
        assert verdict != PropertyVerdict("homogeneity", True, 27, evaluated=6)
        assert repr(verdict) == (
            "PropertyVerdict(name='homogeneity', ok=True, checked=27, "
            "witness='', skipped=False, evaluated=0)"
        )
        with pytest.raises(AttributeError):
            verdict.ok = False

    def test_assumption_report(self):
        report = check_assumption(build_gl(1), 2, 1, box_radius=1)
        rebuilt = AssumptionReport(
            group="gl:1",
            p=2,
            r=1,
            box_radius=1,
            positivity=PropertyVerdict("positivity", True, 3, evaluated=3),
            homogeneity=PropertyVerdict("homogeneity", True, 3),
            additivity_witness=PropertyVerdict("additivity_witness", True, 9),
            x0_bijection=PropertyVerdict("x0_bijection", True, 3, evaluated=3),
        )
        assert report == rebuilt
        assert report == AssumptionReport("gl:1", 2, 1, 1, *report.properties)
        assert report.all_ok
        assert repr(report) == (
            "AssumptionReport(group='gl:1', p=2, r=1, box_radius=1, "
            "positivity=PropertyVerdict(name='positivity', ok=True, "
            "checked=3, witness='', skipped=False, evaluated=3), "
            "homogeneity=PropertyVerdict(name='homogeneity', ok=True, "
            "checked=3, witness='', skipped=False, evaluated=0), "
            "additivity_witness=PropertyVerdict(name='additivity_witness', "
            "ok=True, checked=9, witness='', skipped=False, evaluated=0), "
            "x0_bijection=PropertyVerdict(name='x0_bijection', ok=True, "
            "checked=3, witness='', skipped=False, evaluated=3))"
        )
        with pytest.raises(AttributeError):
            report.p = 3
