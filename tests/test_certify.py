"""Box certification against exhaustive sweeps.

``check_assumption`` decides additivity and homogeneity by proof and
walks positivity once per vector of block minima.  These tests compare
its report with the exhaustive sweeps of ``polyweight._kernels`` and
with plain loops over whole boxes: on every family shape at small
radius and on hand-built data.  A one-block loop checks that the
witness rule the additivity proof uses is the one that works.
"""

import itertools
import time

import pytest

from polyweight import _kernels as kernels
from polyweight import certify
from polyweight.certify import check_assumption
from polyweight.classify import tables_for
from polyweight.errors import CapExceeded, DomainError
from polyweight.functional import phi_ambient
from polyweight.groups import build_gsp, build_levi, parse_group_spec
from polyweight.lattice import QuotientLattice


def box(n, radius):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def exhaustive_homogeneity(datum, radius, prpow):
    """(points checked, witness) of a plain loop over the whole box."""
    checked = 0
    for lam in box(datum.ambient_dim, radius):
        checked += 1
        scaled = tuple(prpow * v for v in lam)
        if phi_ambient(scaled, datum) != tuple(
            prpow * v for v in phi_ambient(lam, datum)
        ):
            return checked, f"weight {lam}"
    return checked, ""


def positivity_of(sweep_result):
    checked, fail = sweep_result
    if fail is None:
        return True, checked, ""
    return (
        False,
        checked,
        f"weight {fail[0]}: sign test {fail[1]}, shift oracle {fail[2]}",
    )


SHAPES = [
    ("gl:1", 3), ("gl:2", 3), ("gl:3", 2), ("gl:4", 1),
    ("gsp:2", 3), ("gsp:4", 2), ("gsp:6", 1),
    ("go:3", 3), ("go:5", 1), ("go:7", 1),
    ("levi:2,3", 1), ("levi:1,1,2", 2), ("levi:1,2,4", 1),
]


@pytest.mark.parametrize(
    "spec,radius", SHAPES, ids=[f"{spec}-R{radius}" for spec, radius in SHAPES]
)
def test_factored_report_equals_the_exhaustive_oracles(spec, radius):
    datum = parse_group_spec(spec)
    report = check_assumption(datum, 3, 1, box_radius=radius)
    t = tables_for(datum)

    pos = report.positivity
    assert (pos.ok, pos.checked, pos.witness) == positivity_of(
        kernels.poly_consistency_sweep(t, radius)
    )

    hom = report.homogeneity
    assert (hom.ok, hom.checked, hom.witness) == (
        True, *exhaustive_homogeneity(datum, radius, 3)
    )

    checked, fail = kernels.pair_witness_sweep(t, radius)
    add = report.additivity_witness
    assert fail is None
    assert (add.ok, add.checked, add.witness) == (True, checked, "")

    # positivity evaluates (2R+1)^s points and x0 every coefficient
    # vector; homogeneity and additivity are decided by proof
    s = datum.num_blocks
    assert pos.evaluated == (2 * radius + 1) ** s
    assert hom.evaluated == add.evaluated == 0
    assert report.x0_bijection.evaluated == report.x0_bijection.checked


def canonical(a, b):
    # the rule of find_witness_w and pair_witness_sweep
    return a, b


def no_swap(a, b):
    return a, a


def wrong_partner(a, b):
    # moves lam's first coordinate, not its minimum, onto b
    return 0, b


RULES = {"no-swap": no_swap, "wrong-partner": wrong_partner}


def block_loop_flags(k, radius, rule):
    """Whether the rule misses on some pair over one block of k coordinates.

    The rule maps the first positions of the minima of lam and lam' to
    the two positions of lam it transposes.
    """
    for lam in box(k, radius):
        for lamp in box(k, radius):
            i, j = rule(lam.index(min(lam)), lamp.index(min(lamp)))
            moved = list(lam)
            moved[i], moved[j] = lam[j], lam[i]
            if min(x + y for x, y in zip(moved, lamp)) != min(lam) + min(lamp):
                return True
    return False


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES)
@pytest.mark.parametrize(
    "k,radius", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]
)
def test_broken_rule_is_flagged_when_the_block_loop_flags_it(rule, k, radius):
    # the additivity proof's rule passes the one-block loop, and the loop
    # is not vacuous: both broken rules transpose the wrong positions as
    # soon as a block has two
    assert not block_loop_flags(k, radius, canonical)
    assert block_loop_flags(k, radius, rule) == (k > 1)


def test_kernel_not_constant_on_blocks_is_a_domain_error():
    # gsp(4)'s blocks are {0, 3} and {1, 2}; this kernel vector is 1 at 0
    # and 0 at 3
    bad = build_gsp(4)._replace(lattice=QuotientLattice(4, ((1, -1, 0, 0),)))
    with pytest.raises(DomainError, match="not constant"):
        check_assumption(bad, 2, 1, box_radius=1)


@pytest.mark.parametrize(
    "spec,n_matrix",
    [
        ("gl:2", ((0,),)),
        ("gsp:4", ((0,), (1,))),
        ("go:5", ((2,), (2,), (0,))),
        ("levi:1,2", ((1, 0), (1, 0))),
    ],
)
def test_positivity_failure_matches_the_exhaustive_sweep(spec, n_matrix):
    # a wrong n-matrix breaks the sign test, so both paths must report the
    # same first disagreement
    datum = parse_group_spec(spec)._replace(n_matrix=n_matrix)
    for radius in (1, 2):
        verdict = check_assumption(datum, 2, 1, box_radius=radius).positivity
        expected = positivity_of(
            kernels.poly_consistency_sweep(tables_for(datum), radius)
        )
        assert expected[0] is False
        assert (verdict.ok, verdict.checked, verdict.witness) == expected


@pytest.mark.parametrize(
    "spec,radius", [("gsp:6", 3), ("gsp:8", 2), ("go:7", 2), ("levi:2,2,3", 2)]
)
def test_rank_six_and_eight_certify(spec, radius):
    datum = parse_group_spec(spec)
    report = check_assumption(datum, 3, 1, box_radius=radius)
    assert report.all_ok
    assert report.additivity_witness.checked == (2 * radius + 1) ** (
        2 * datum.ambient_dim
    )


@pytest.mark.parametrize(
    "spec,radius", [("gl:3", 3037000500), ("go:41", None)]
)
def test_an_unbounded_box_is_refused_before_any_walk(spec, radius):
    with pytest.raises(CapExceeded, match="walks more than 1000000 classes"):
        check_assumption(parse_group_spec(spec), 3, 1, box_radius=radius)


@pytest.mark.parametrize("radius", [2.5, 2.0, "2"])
def test_a_radius_that_is_not_an_integer_is_refused(radius):
    # int() certified R = 2.5 as radius 2
    with pytest.raises(DomainError, match="box radius must be an integer"):
        check_assumption(parse_group_spec("gl:2"), 3, 1, box_radius=radius)


@pytest.mark.parametrize(
    "spec,radius,classes",
    # gl:3 at R=2: 5 minima vectors and 5 x0 vectors; levi:1,2 at R=1:
    # 3^2 minima vectors and 3^2 x0 vectors
    [("gl:3", 2, 10), ("levi:1,2", 1, 18)],
)
def test_the_class_count_is_the_closed_form(spec, radius, classes, monkeypatch):
    datum = parse_group_spec(spec)
    monkeypatch.setattr(certify, "CERTIFY_CLASS_CAP", classes - 1)
    with pytest.raises(CapExceeded):
        check_assumption(datum, 3, 1, box_radius=radius)
    monkeypatch.setattr(certify, "CERTIFY_CLASS_CAP", classes)
    assert check_assumption(datum, 3, 1, box_radius=radius).all_ok


def test_a_pair_count_past_the_bit_limit_is_refused(monkeypatch):
    # gl:3 at R=2 counts 5^6 pairs, bounded by 2 * 3 * bit_length(5) = 18
    # bits
    datum = parse_group_spec("gl:3")
    monkeypatch.setattr(certify, "PRPOW_BIT_LIMIT", 17)
    with pytest.raises(CapExceeded, match="= 18 exceeds 17"):
        check_assumption(datum, 3, 1, box_radius=2)
    monkeypatch.setattr(certify, "PRPOW_BIT_LIMIT", 18)
    assert check_assumption(datum, 3, 1, box_radius=2).all_ok


def test_a_4300_digit_radius_is_refused_at_once():
    # the class count (2R+1)^2048 + 2R+1 is decided on bit lengths before
    # a power is formed; forming it took 15.6 s
    datum = build_levi([1] * 2_048)
    radius = 10**4_299
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"radius {radius} walks more than"):
        check_assumption(datum, 3, 1, box_radius=radius)
    assert time.perf_counter() - start < 0.5


class _Walked(Exception):
    """Raised by the first step after the class count."""


@pytest.mark.parametrize("spec", ["gsp:12", "go:13", "gsp:16"])
def test_the_class_cap_admits_these_data_at_radius_two(spec, monkeypatch):
    def first_step(datum):
        raise _Walked

    monkeypatch.setattr(certify, "_block_kernel", first_step)
    with pytest.raises(_Walked):
        check_assumption(parse_group_spec(spec), 3, 1, box_radius=2)
