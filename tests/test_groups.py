"""Group family construction data and hypothesis validation."""

import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import polyweight
from polyweight.classify import ClassificationContext
from polyweight.errors import DomainError, HypothesisFailure
from polyweight.groups import (
    GroupDatum,
    ValidationReport,
    _finalize,
    _has_polynomial_rep,
    _normalisation_pairs,
    build_gl,
    build_go_even,
    build_go_odd,
    build_gsp,
    build_levi,
    parse_group_spec,
    permute_d,
    validate_datum,
    x0_basis,
)
from polyweight.lattice import QuotientLattice, act, pair, transposition
from polyweight.phi import PhiData
from shift_oracle import box_window, finalize_window, has_nonneg_rep

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(polyweight.__file__)))

ALL_GOOD = [
    build_gl(1),
    build_gl(2),
    build_gl(3),
    build_gsp(4),
    build_gsp(6),
    build_go_odd(3),
    build_go_odd(5),
    build_levi([2, 3]),
    build_levi([1, 1, 2]),
]


@pytest.mark.parametrize("datum", ALL_GOOD, ids=lambda d: d.spec_string)
def test_validation_passes(datum):
    report = validate_datum(datum)
    assert report.all_ok, report.witnesses


@pytest.mark.parametrize("datum", ALL_GOOD, ids=lambda d: d.spec_string)
def test_coroots_annihilate_kernel_and_ds(datum):
    lat = datum.lattice
    for cov in datum.simple_coroots:
        assert lat.annihilates(cov)
        for d in datum.d_vectors:
            assert pair(d, cov) == 0


@pytest.mark.parametrize("datum", ALL_GOOD, ids=lambda d: d.spec_string)
def test_generators_preserve_kernel(datum):
    lat = datum.lattice
    for g in datum.weyl_generators:
        for k in lat.kernel_basis:
            assert lat.contains(act(g, k))


def test_weyl_group_orders():
    assert len(build_gl(3).weyl_group()) == 6
    assert len(build_gsp(4).weyl_group()) == 8
    assert len(build_go_odd(5).weyl_group()) == 8
    assert len(build_levi([2, 3]).weyl_group()) == 12
    # index 2 in the full signed-permutation group of rank 4
    assert len(build_go_even(8).weyl_group()) == 192


def test_go_even_fails_exactly_c_lower():
    report = validate_datum(build_go_even(8))
    assert (report.a, report.b, report.c_upper, report.d) == (
        True,
        True,
        True,
        True,
    )
    assert not report.c_lower
    assert not report.all_ok
    assert any("c-lower" in w for w in report.witnesses)


def test_go_even_missing_transposition_is_within_block():
    datum = build_go_even(4)
    group = set(datum.weyl_group())
    # a single within-block sign swap is absent; the doubled one is present
    assert transposition(4, 0, 3) not in group
    assert transposition(4, 1, 2) not in group


def test_blocks_partition_indices():
    for datum in ALL_GOOD + [build_go_even(8)]:
        flat = sorted(i for blk in datum.blocks for i in blk)
        assert flat == list(range(datum.ambient_dim))


def test_gsp_pairing_structure():
    datum = build_gsp(4)
    assert datum.blocks == ((0, 3), (1, 2))
    assert datum.b == ((1, 0, 0, 1), (0, 1, 1, 0))
    assert datum.d_vectors == ((1, 0, 0, 1),)
    assert datum.lattice.kernel_basis == ((1, -1, -1, 1),)


def test_go_odd_middle_block():
    datum = build_go_odd(5)
    assert datum.blocks == ((0, 4), (1, 3), (2,))
    assert datum.d_vectors == ((0, 0, 1, 0, 0),)
    # short coroot is doubled, so its pairing diagonal entry is 2
    assert datum.basis_pairing_diag[-1] == 2
    short = datum.simple_coroots[-1]
    assert all(c % 2 == 0 for c in short)


def test_x0_basis():
    assert x0_basis(build_gl(2)) == ((1, 1),)
    assert x0_basis(build_levi([2, 3])) == (
        (1, 1, 0, 0, 0),
        (0, 0, 1, 1, 1),
    )


def test_weight_basis_spans_with_unit_coroot_pairings():
    for datum in ALL_GOOD:
        dual = datum.weight_basis[: len(datum.simple_coroots)]
        for k, lift in enumerate(dual):
            for j, cov in enumerate(datum.simple_coroots):
                expected = datum.basis_pairing_diag[k] if j == k else 0
                assert pair(lift, cov) == expected


class TestParseGroupSpec:
    @pytest.mark.parametrize(
        "text,family,dim",
        [
            ("gl:3", "gl", 3),
            ("gsp:6", "gsp", 6),
            ("go:5", "go_odd", 5),
            ("go:8", "go_even", 8),
            ("levi:2,3", "levi", 5),
            (" GL:2 ", "gl", 2),
        ],
    )
    def test_accepts(self, text, family, dim):
        datum = parse_group_spec(text)
        assert datum.family == family
        assert datum.ambient_dim == dim

    @pytest.mark.parametrize(
        "text",
        ["gl", "gl:", "gl:x", "sp:4", "levi:", "levi:2,-1", "gsp:5", "go:2"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_group_spec(text)


class TestPermuteD:
    def test_swapped_levi_still_validates(self):
        datum = permute_d(build_levi([2, 3]), (1, 0))
        assert validate_datum(datum).all_ok
        assert datum.d_vectors == (
            (0, 0, 1, 1, 1),
            (1, 1, 0, 0, 0),
        )

    def test_identity_order_is_noop(self):
        levi = build_levi([2, 3])
        same = permute_d(levi, (0, 1))
        assert same.d_indices == levi.d_indices
        assert same.n_matrix == levi.n_matrix
        assert same.weight_basis == levi.weight_basis

    def test_three_block_cycle(self):
        levi = build_levi([1, 1, 2])
        cycled = permute_d(levi, (2, 0, 1))
        assert validate_datum(cycled).all_ok
        assert cycled.d_vectors == tuple(
            levi.d_vectors[j] for j in (2, 0, 1)
        )

    def test_rejects_non_permutation(self):
        with pytest.raises(DomainError):
            permute_d(build_levi([2, 3]), (0, 0))


@pytest.mark.parametrize(
    "builder,bad",
    [
        (build_gl, 0),
        (build_gsp, 3),
        (build_gsp, 0),
        (build_go_odd, 4),
        (build_go_odd, 1),
        (build_go_even, 5),
        (build_go_even, 2),
        (build_levi, []),
        (build_levi, [0, 2]),
    ],
)
def test_builders_reject_bad_sizes(builder, bad):
    with pytest.raises(ValueError):
        builder(bad)


def test_two_rho_pairs_to_two_with_simple_coroots():
    for datum in ALL_GOOD:
        for cov in datum.simple_coroots:
            assert pair(datum.positive_root_sum_twice, cov) == 2


def test_n_matrix_expands_b_over_d():
    for datum in ALL_GOOD + [build_go_even(8)]:
        lat = datum.lattice
        for b_vec, row in zip(datum.b, datum.n_matrix):
            combo = [0] * datum.ambient_dim
            for coeff, d_vec in zip(row, datum.d_vectors):
                for idx, dv in enumerate(d_vec):
                    combo[idx] += coeff * dv
            assert lat.equal_mod_kernel(b_vec, tuple(combo))
            assert min(row) >= 0


def test_weyl_group_cached_and_sorted():
    datum = build_gsp(4)
    first = datum.weyl_group()
    assert first is datum.weyl_group()
    assert list(first) == sorted(first)


DATUM_FIELDS = (
    "family",
    "spec_string",
    "ambient_dim",
    "lattice",
    "blocks",
    "b",
    "d_indices",
    "n_matrix",
    "simple_roots",
    "simple_coroots",
    "weyl_generators",
    "positive_root_sum_twice",
    "weight_basis",
    "basis_pairing_diag",
)


class TestRecords:
    """Construction, repr, equality and immutability of the records."""

    def test_group_datum_fields(self):
        datum = build_gl(2)
        values = [getattr(datum, name) for name in DATUM_FIELDS]
        by_position = GroupDatum(*values)
        by_keyword = GroupDatum(**dict(zip(DATUM_FIELDS, values)))
        assert by_position == by_keyword == datum
        assert by_position._cache == {}
        assert by_position._cache is not by_keyword._cache
        assert repr(datum) == "GroupDatum({})".format(
            ", ".join(
                f"{name}={value!r}" for name, value in zip(DATUM_FIELDS, values)
            )
        )
        assert repr(datum).startswith(
            "GroupDatum(family='gl', spec_string='gl:2', ambient_dim=2, lattice="
        )

    def test_group_datum_cache_is_not_compared_or_printed(self):
        datum = build_gsp(4)
        copy = GroupDatum(*(getattr(datum, name) for name in DATUM_FIELDS))
        before = repr(datum)
        datum.weyl_group()
        datum.validation()
        assert datum._cache and not copy._cache
        assert "_cache" not in repr(datum)
        assert repr(datum) == repr(copy) == before
        assert datum == copy
        with pytest.raises(TypeError):
            hash(datum)

    def test_validation_report(self):
        report = ValidationReport(True, True, False, True, True, ("w",))
        assert report == ValidationReport(
            a=True, b=True, c_lower=False, c_upper=True, d=True, witnesses=("w",)
        )
        assert not report.all_ok
        assert validate_datum(build_gl(2)) == ValidationReport(
            True, True, True, True, True, ()
        )
        assert repr(report) == (
            "ValidationReport(a=True, b=True, c_lower=False, c_upper=True, "
            "d=True, witnesses=('w',))"
        )
        with pytest.raises(AttributeError):
            report.a = False


# -- polynomial normalisation: block-minimum test against the shift search --

NORMALISED_SPECS = (
    [f"gsp:{n}" for n in range(4, 11, 2)]
    + [f"go:{n}" for n in range(5, 10, 2)]
    + [f"gl:{n}" for n in range(2, 9)]
    + ["levi:1,2,3", "levi:2,2,3", "levi:1,1,2,4"]
)


@pytest.mark.parametrize("spec", NORMALISED_SPECS)
def test_normalisation_agrees_with_shift_search(spec):
    datum = parse_group_spec(spec)
    data = PhiData.from_datum(datum)
    lat = datum.lattice
    pairs = list(_normalisation_pairs(datum))
    assert len(pairs) == len(datum.simple_coroots)
    for lift, reduced in pairs:
        assert _has_polynomial_rep(lift, data)
        assert has_nonneg_rep(lat, lift, finalize_window(lift))
        assert not _has_polynomial_rep(reduced, data)
        assert not has_nonneg_rep(lat, reduced, finalize_window(reduced))


@pytest.mark.parametrize("spec", NORMALISED_SPECS + ["gsp:40", "go:41"])
def test_context_inverts_the_basis_plus_kernel_stack(spec):
    datum = parse_group_spec(spec)
    rows = ClassificationContext(datum, 3, 1)._coef
    stacked = datum.weight_basis + datum.lattice.kernel_basis
    assert len(stacked) == datum.ambient_dim
    for i, row in enumerate(rows):
        assert [sum(a * b for a, b in zip(row, col)) for col in stacked] == [
            int(i == j) for j in range(len(stacked))
        ]


BOX_CASES = (
    [(f"gl:{n}", 2) for n in range(1, 6)]
    + [("gsp:2", 2), ("gsp:4", 2), ("go:3", 2), ("go:5", 2), ("go:4", 2)]
    + [("levi:2,3", 2), ("levi:1,1,2", 2)]
    + [("gl:6", 1), ("gl:7", 1), ("gsp:6", 1), ("go:6", 1), ("go:7", 1)]
    + [("levi:1,2,3", 1), ("levi:2,2,3", 1)]
)


@pytest.mark.parametrize("spec,radius", BOX_CASES, ids=[c[0] for c in BOX_CASES])
def test_block_minimum_test_agrees_with_shift_search_on_box(spec, radius):
    datum = parse_group_spec(spec)
    data = PhiData.from_datum(datum)
    lat = datum.lattice
    counts = {True: 0, False: 0}
    rng = range(-radius, radius + 1)
    for vec in itertools.product(rng, repeat=datum.ambient_dim):
        got = _has_polynomial_rep(vec, data)
        assert got == has_nonneg_rep(lat, vec, box_window(vec, radius)), vec
        counts[got] += 1
    assert counts[True] and counts[False]


def _drop_block_indicator(datum):
    """The datum with its first dual lift replaced by the reduced lift."""
    _, reduced = next(_normalisation_pairs(datum))
    basis = (reduced,) + datum.weight_basis[1:]
    fields = {name: getattr(datum, name) for name in GroupDatum._fields}
    return GroupDatum(**dict(fields, weight_basis=basis))


DROPPED_INDICATOR_SCRIPT = """
from polyweight.groups import GroupDatum, _finalize, _normalisation_pairs, build_gsp
datum = build_gsp(4)
_, reduced = next(_normalisation_pairs(datum))
fields = {name: getattr(datum, name) for name in GroupDatum._fields}
broken = GroupDatum(**dict(fields, weight_basis=(reduced,) + datum.weight_basis[1:]))
try:
    _finalize(broken)
except AssertionError as exc:
    print("debug", __debug__, "raised", exc)
"""


class TestFinalizeRaises:
    def test_dropped_block_indicator(self):
        broken = _drop_block_indicator(build_gsp(4))
        with pytest.raises(AssertionError, match="no non-negative representative"):
            _finalize(broken)

    def test_dropped_block_indicator_under_optimize(self):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", DROPPED_INDICATOR_SCRIPT],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("debug False raised dual lift")

    def test_functional_must_vanish_on_kernel(self):
        # the kernel vector b_0 - b_1 is block-constant but phi(b_0 - b_1)
        # = (1, -1); that makes the d classes dependent, which (d) reports
        datum = build_levi([1, 1])
        fields = {name: getattr(datum, name) for name in GroupDatum._fields}
        fields["lattice"] = QuotientLattice(2, [(1, -1)])
        with pytest.raises(
            AssertionError, match=r"\(d\): the d classes are linearly dependent"
        ):
            _finalize(GroupDatum(**fields))


def _replace(datum, **changes):
    """The datum with some fields replaced, built without ``_finalize``."""
    fields = {name: getattr(datum, name) for name in GroupDatum._fields}
    return GroupDatum(**dict(fields, **changes))


LEVI23 = build_levi([2, 3])

SHAPE_GAPS = [
    ("missing-n-matrix-row", "d", {"n_matrix": LEVI23.n_matrix[:1]},
     "(d): n-matrix row count 1 differs from block count 2"),
    ("short-n-matrix-row", "d", {"n_matrix": ((1,), (0, 1))},
     "(d): expansion of b[0] has length 1, not the d-list length 2"),
    ("extra-block-indicator", "b", {"b": LEVI23.b + (LEVI23.b[0],)},
     "(b): block indicator count 3 differs from block count 2"),
]


@pytest.mark.parametrize(
    "hypothesis,changes,witness",
    [case[1:] for case in SHAPE_GAPS],
    ids=[case[0] for case in SHAPE_GAPS],
)
def test_validation_rejects_shape_gaps(hypothesis, changes, witness):
    broken = _replace(LEVI23, **changes)
    report = validate_datum(broken)
    assert report.witnesses == (witness,)
    failing = [h for h in ValidationReport._fields[:5] if not getattr(report, h)]
    assert failing == [hypothesis]
    with pytest.raises(HypothesisFailure):
        ClassificationContext(broken, 3, 1)


FINALIZE_DEFECTS = [
    ("a", build_gl(2), {"b": ((2, 2),)}),
    ("b", LEVI23, {"blocks": ((2, 3, 4), (0, 1))}),
    ("c_upper", build_levi([1, 1]), {"weyl_generators": ((0, 0),)}),
    ("d", LEVI23, {"d_indices": (0, 0)}),
]


@pytest.mark.parametrize(
    "hypothesis,datum,changes",
    FINALIZE_DEFECTS,
    ids=[case[0] for case in FINALIZE_DEFECTS],
)
def test_finalize_raises_the_validation_witnesses(hypothesis, datum, changes):
    broken = _replace(datum, **changes)
    report = validate_datum(broken)
    assert not getattr(report, hypothesis) and report.c_lower
    with pytest.raises(AssertionError) as err:
        _finalize(broken)
    assert str(err.value) == "construction hypotheses fail: " + "; ".join(
        report.witnesses
    )


@pytest.mark.parametrize("builder,size", [(build_gsp, 40), (build_go_odd, 41)])
def test_high_rank_builds_and_validates(builder, size):
    datum = builder(size)
    assert datum.ambient_dim == size
    assert validate_datum(datum).all_ok


def test_cli_validates_gsp30():
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "polyweight", "validate", "--group", "gsp:30"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    elapsed = time.perf_counter() - begin
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["all_ok"] is True
    print(f"validate --group gsp:30: {elapsed:.2f} s")
