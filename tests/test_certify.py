"""Block-factored box certification against exhaustive sweeps.

``check_assumption`` evaluates one block size at a time.  These tests
compare its report with the exhaustive sweeps of ``polyweight._kernels``
and with plain loops over whole boxes: on every family shape at small
radius, with deliberately broken witness rules, and on hand-built data.
"""

import itertools

import pytest

from polyweight import _kernels as kernels
from polyweight import certify
from polyweight.certify import check_assumption
from polyweight.classify import tables_for
from polyweight.errors import CapExceeded, DomainError
from polyweight.functional import PhiData, phi_ambient
from polyweight.groups import GroupDatum, build_gl, build_gsp, parse_group_spec
from polyweight.lattice import QuotientLattice


def box(n, radius):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def first_argmin(vec, members):
    """Position, in block order, of the first minimum of vec on a block."""
    values = [vec[a] for a in members]
    return values.index(min(values))


def moved_by(rule, lam, lamp, blocks):
    """w.lam for the witness the rule picks on every block."""
    out = list(lam)
    for blk in blocks:
        i, j = rule(first_argmin(lam, blk), first_argmin(lamp, blk))
        out[blk[i]], out[blk[j]] = lam[blk[j]], lam[blk[i]]
    return out


def exhaustive_additivity(datum, radius, rule):
    """(pairs checked, witness) of a plain loop over the whole box squared."""
    data = PhiData.from_datum(datum)
    points = list(box(datum.ambient_dim, radius))
    phis = [phi_ambient(v, data) for v in points]
    checked = 0
    for lam, phi_lam in zip(points, phis):
        for lamp, phi_lamp in zip(points, phis):
            checked += 1
            moved = moved_by(rule, lam, lamp, datum.blocks)
            u = tuple(x + y for x, y in zip(moved, lamp))
            if phi_ambient(u, data) != tuple(
                a + b for a, b in zip(phi_lam, phi_lamp)
            ):
                return checked, f"pair {lam}, {lamp}"
    return checked, ""


def exhaustive_homogeneity(datum, radius, prpow):
    """(points checked, witness) of a plain loop over the whole box."""
    data = PhiData.from_datum(datum)
    checked = 0
    for lam in box(datum.ambient_dim, radius):
        checked += 1
        scaled = tuple(prpow * v for v in lam)
        if phi_ambient(scaled, data) != tuple(
            prpow * v for v in phi_ambient(lam, data)
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


def hand_built(datum, **changes):
    """The datum with some fields replaced."""
    fields = {name: getattr(datum, name) for name in GroupDatum._fields}
    fields.update(changes)
    return GroupDatum(**fields)


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

    # the factored path evaluates (2R+1)^s points for positivity, two per
    # class and block size for the other two, and every x0 coefficient
    s = datum.num_blocks
    assert pos.evaluated == (2 * radius + 1) ** s
    sizes = {len(blk) for blk in datum.blocks}
    classes = {k: 2 * radius + 1 + (k - 1) * 2 * radius for k in sizes}
    assert hom.evaluated == 2 * sum(classes.values())
    assert add.evaluated == 2 * sum(c * c for c in classes.values())
    assert report.x0_bijection.evaluated == report.x0_bijection.checked


def no_swap(a, b):
    return a, a


def wrong_partner(a, b):
    # moves lam's first coordinate, not its minimum, onto b
    return 0, b


RULES = {"no-swap": no_swap, "wrong-partner": wrong_partner}


def block_loop_flags(k, radius, rule):
    """Whether the rule misses on some pair over one block of k coordinates."""
    blk = tuple(range(k))
    for lam in box(k, radius):
        for lamp in box(k, radius):
            moved = moved_by(rule, lam, lamp, [blk])
            if min(x + y for x, y in zip(moved, lamp)) != min(lam) + min(lamp):
                return True
    return False


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES)
@pytest.mark.parametrize(
    "k,radius", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]
)
def test_broken_rule_is_flagged_when_the_block_loop_flags_it(
    monkeypatch, rule, k, radius
):
    flagged = block_loop_flags(k, radius, rule)
    # both rules transpose the wrong positions as soon as a block has two
    assert flagged == (k > 1)
    monkeypatch.setattr(certify, "_witness_swap", rule)
    report = check_assumption(build_gl(k), 3, 1, box_radius=radius)
    assert report.additivity_witness.ok is not flagged


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES)
@pytest.mark.parametrize(
    "spec,radius",
    [("gl:3", 1), ("gsp:4", 1), ("go:5", 1), ("levi:2,3", 1), ("levi:1,2", 2)],
)
def test_broken_rule_reports_the_first_failing_pair(
    monkeypatch, rule, spec, radius
):
    datum = parse_group_spec(spec)
    expected = exhaustive_additivity(datum, radius, rule)
    monkeypatch.setattr(certify, "_witness_swap", rule)
    verdict = check_assumption(datum, 3, 1, box_radius=radius).additivity_witness
    assert (verdict.ok, verdict.checked, verdict.witness) == (False, *expected)


def test_kernel_not_constant_on_blocks_is_a_domain_error():
    # gsp(4)'s blocks are {0, 3} and {1, 2}; this kernel vector is 1 at 0
    # and 0 at 3
    bad = hand_built(build_gsp(4), lattice=QuotientLattice(4, ((1, -1, 0, 0),)))
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
    datum = hand_built(parse_group_spec(spec), n_matrix=n_matrix)
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


@pytest.mark.parametrize("spec,radius", [("gl:3", 3000), ("go:41", None)])
def test_an_unbounded_box_is_refused_before_any_walk(spec, radius):
    with pytest.raises(CapExceeded, match="walks more than 1000000 classes"):
        check_assumption(parse_group_spec(spec), 3, 1, box_radius=radius)


@pytest.mark.parametrize(
    "spec,radius,classes",
    # gl:3 at R=2: 5 minima vectors, 13^2 + 13 cells, 5 x0 vectors;
    # levi:1,2 at R=1: 3^2 minima vectors, 3^2 + 3 and 5^2 + 5 cells, 3^2
    # x0 vectors
    [("gl:3", 2, 192), ("levi:1,2", 1, 60)],
)
def test_the_class_count_is_the_closed_form(spec, radius, classes, monkeypatch):
    datum = parse_group_spec(spec)
    monkeypatch.setattr(certify, "CERTIFY_CLASS_CAP", classes - 1)
    with pytest.raises(CapExceeded):
        check_assumption(datum, 3, 1, box_radius=radius)
    monkeypatch.setattr(certify, "CERTIFY_CLASS_CAP", classes)
    assert check_assumption(datum, 3, 1, box_radius=radius).all_ok


class _Walked(Exception):
    """Raised by the first step after the class count."""


@pytest.mark.parametrize("spec", ["gsp:12", "go:13", "gsp:16"])
def test_the_class_cap_admits_these_data_at_radius_two(spec, monkeypatch):
    def first_step(datum):
        raise _Walked

    monkeypatch.setattr(certify, "_block_kernel", first_step)
    with pytest.raises(_Walked):
        check_assumption(parse_group_spec(spec), 3, 1, box_radius=2)
