"""Group family construction data and hypothesis validation."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyweight
from polyweight import weyl
from polyweight.certify import check_assumption, kernel_block_constancy
from polyweight.classify import (
    ClassificationContext,
    decompose,
    enumerate_Pr,
    weyl_orbit_witness_nonpolynomial,
)
from polyweight.errors import (
    CapExceeded,
    DomainError,
    HypothesisFailure,
    PolyweightError,
)
from polyweight.functional import phi_ambient
from polyweight.groups import (
    GroupDatum,
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
from polyweight.lattice import QuotientLattice, pair
from polyweight.weyl import (
    ValidationReport,
    act,
    coordinate_rows,
    generate_group,
    identity_perm,
    stabilizer_chain,
    transposition,
)
from shift_oracle import box_window, has_nonneg_rep, lift_window

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


CLOSURE_SPECS = (
    [f"gl:{n}" for n in range(1, 9)]
    + [f"gsp:{n}" for n in range(2, 13, 2)]
    + [f"go:{n}" for n in range(3, 14)]
    + ["levi:2,3", "levi:1,2,3", "levi:2,2,3", "levi:1,1,2,4"]
)


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_c_lower_agrees_with_the_weyl_closure(spec):
    # membership in W is decided by sympy's stabilizer chain, not by
    # listing the closure
    combinatorics = pytest.importorskip("sympy.combinatorics")
    datum = parse_group_spec(spec)
    report = validate_datum(datum)
    # no built-in datum needs the closure: the even orthogonal family,
    # the one without transposition generators, has only even ones
    assert "weyl" not in datum._cache
    n = datum.ambient_dim
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in datum.weyl_generators]
    )
    missing = [
        f"(c-lower): transposition ({x}, {y}) within block {bi} "
        "is not in the generated Weyl group"
        for bi, blk in enumerate(datum.blocks)
        for x, y in itertools.combinations(sorted(blk), 2)
        if not group.contains(combinatorics.Permutation(x, y, size=n))
    ]
    assert [w for w in report.witnesses if w.startswith("(c-lower)")] == missing
    assert report.c_lower == (not missing)


# generator sets no built-in family has
HAND_BUILT = {
    "3-cycle-and-transposition": ((1, 2, 0), (1, 0, 2)),
    "3-cycle": ((1, 2, 0),),
    "identity": ((0, 1, 2),),
    "5-cycle-and-transposition": ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)),
}


def assert_lists_the_group(group, gens):
    # sympy's own stabilizer chain orders the group and lists its elements
    combinatorics = pytest.importorskip("sympy.combinatorics")
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in gens]
    )
    assert len(group) == oracle.order()
    assert list(group) == sorted(tuple(p.array_form) for p in oracle.generate())


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_weyl_group_lists_the_generated_group_sorted(spec):
    datum = parse_group_spec(spec)
    gens = datum.weyl_generators or (identity_perm(datum.ambient_dim),)
    assert_lists_the_group(datum.weyl_group(), gens)


@pytest.mark.parametrize("gens", HAND_BUILT.values(), ids=HAND_BUILT)
def test_generate_group_lists_hand_built_groups_sorted(gens):
    assert_lists_the_group(generate_group(gens), gens)


@pytest.mark.parametrize("spec", ["gl:9", "gsp:40", "gsp:200"])
def test_generate_group_refuses_before_listing(spec):
    # the chain's order passes the cap before any element is listed
    gens = parse_group_spec(spec).weyl_generators
    tracemalloc.start()
    try:
        begin = time.perf_counter()
        with pytest.raises(CapExceeded, match="cap of 100000 elements"):
            generate_group(gens)
        elapsed = time.perf_counter() - begin
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_a_table_indexes_slices_and_searches_as_its_tuple_does():
    table = build_gsp(6).weyl_group()
    listed = tuple(table)
    assert isinstance(table, weyl.PermutationTable)
    assert len(table) == len(listed) == 48
    assert [table[i] for i in range(-48, 48)] == list(listed * 2)
    for past in (48, -49, 10**6):
        with pytest.raises(IndexError):
            table[past]
    cuts = (
        slice(None), slice(3, 9), slice(None, None, -1), slice(-5, None),
        slice(40, 2, -7), slice(9, 3), slice(100, None),
    )
    for cut in cuts:
        got = table[cut]
        assert type(got) is tuple and got == listed[cut]
        assert all(type(p) is tuple for p in got)
    assert all(p in table for p in listed)
    assert transposition(6, 0, 1) not in table and [0, 1, 2, 3, 4, 5] not in table
    assert [table.index(p) for p in listed] == list(range(48))
    assert list(reversed(table)) == list(reversed(listed))
    assert table != listed and tuple(table) == listed


@pytest.mark.parametrize(
    "n, typecode", [(256, "B"), (257, "H"), (300, "H"), (65_536, "H"), (65_537, "L")]
)
def test_a_table_takes_the_narrowest_entries_that_fit(n, typecode):
    # generate_group takes any degree; the builders stop at 2,048 points
    table = generate_group([transposition(n, 0, n - 1)])
    assert table._table.typecode == typecode
    assert list(table) == [identity_perm(n), transposition(n, 0, n - 1)]
    assert table[-1] == transposition(n, 0, n - 1)


def test_no_generators_list_the_empty_permutation():
    table = generate_group(())
    assert len(table) == 1
    assert list(table) == [()] and table[0] == table[-1] == ()
    assert table[:] == ((),)


def test_listing_gl8_holds_no_tuple_per_element():
    # 40,320 elements as tuples peak at 4.6 MiB; as bytes, at 0.3-0.5 MiB
    gens = build_gl(8).weyl_generators
    tracemalloc.start()
    try:
        table = generate_group(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 40_320
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


def closure(gens, n):
    """The sorted group ``gens`` generate, by breadth-first products."""
    e = identity_perm(n)
    seen, queue = {e}, [e]
    for u in queue:
        for g in gens:
            v = tuple(map(g.__getitem__, u))
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return sorted(seen)


def test_random_generator_sets_list_their_closure():
    # each generator permutes a random set of at most four points, so most
    # groups are small and some reach S_7
    rng = random.Random(28)
    for _ in range(1_000):
        n = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(n), rng.randint(1, min(n, 4)))
            images = rng.sample(support, len(support))
            g = list(range(n))
            for a, b in zip(support, images):
                g[a] = b
            gens.append(tuple(g))
        table, expected = generate_group(gens), closure(gens, n)
        assert list(table) == expected, gens
        assert table[len(table) // 2] == expected[len(table) // 2]


def test_c_lower_falls_back_to_sifting():
    # (0 1) joins only 0 and 1, but with the 3-cycle it generates S_3; the
    # other pairs are sifted through the cached chain, and W is not listed
    datum = build_gl(3)._replace(weyl_generators=((1, 2, 0), (1, 0, 2)))
    assert validate_datum(datum).c_lower
    assert "weyl-chain" in datum._cache
    assert "weyl" not in datum._cache
    # a 3-cycle alone is even, so no transposition lies in its group
    cyclic = build_gl(3)._replace(weyl_generators=((1, 2, 0),))
    assert [w[:31] for w in validate_datum(cyclic).witnesses] == [
        "(c-lower): transposition (0, 1)",
        "(c-lower): transposition (0, 2)",
        "(c-lower): transposition (1, 2)",
    ]
    assert "weyl-chain" not in cyclic._cache


def test_c_lower_sifts_past_the_listing_cap():
    # a 9-cycle and (0 1) generate S_9, whose 362,880 elements pass
    # WEYL_CAP; sifting decides every pair without listing one
    cycle = tuple((i + 1) % 9 for i in range(9))
    datum = build_gl(9)._replace(weyl_generators=(cycle, transposition(9, 0, 1)))
    report = datum.validation()
    assert report.c_lower and report.all_ok, report.witnesses
    assert "weyl" not in datum._cache
    with pytest.raises(CapExceeded, match="cap of 100000 elements"):
        datum.weyl_group()


def test_the_uncapped_chain_has_a_work_bound():
    # a 100-cycle and (0 1) generate S_100, whose full chain takes about
    # 15 s; the work cap refuses it first
    n = 100
    cycle = tuple((i + 1) % n for i in range(n))
    datum = build_gl(n)._replace(weyl_generators=(cycle, transposition(n, 0, 1)))
    begin = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"more than {weyl.CHAIN_WORK_CAP} "):
        datum.validation()
    elapsed = time.perf_counter() - begin
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert "weyl-chain" not in datum._cache


@pytest.mark.parametrize("n", [45, 2048])
def test_the_work_bound_counts_the_sifts(monkeypatch, n):
    # every entry the chain composes counts, the divisions of its sifts
    # included, so the refusal comes within one composition of the cap
    # whatever n
    composed = 0
    compose = weyl.compose

    def counted(p, q):
        nonlocal composed
        composed += len(q)
        return compose(p, q)

    monkeypatch.setattr(weyl, "compose", counted)
    cycle = tuple((i + 1) % n for i in range(n))
    with pytest.raises(CapExceeded, match="permutation entries"):
        stabilizer_chain((cycle, transposition(n, 0, 1)))
    assert weyl.CHAIN_WORK_CAP - n < composed <= weyl.CHAIN_WORK_CAP


def test_the_largest_built_in_group_meets_the_listing_cap_first():
    # its chain composes 2.81 M entries before WEYL_CAP refuses it, the
    # most of any built-in datum (go:2047 composes 2.81 M too)
    with pytest.raises(CapExceeded, match="cap of 100000 elements"):
        parse_group_spec("gsp:2048").weyl_group()


@pytest.mark.parametrize("gens", HAND_BUILT.values(), ids=HAND_BUILT)
def test_sifting_decides_membership(gens):
    # every permutation of the points sifts to the identity exactly when
    # sympy's stabilizer chain holds it
    combinatorics = pytest.importorskip("sympy.combinatorics")
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in gens]
    )
    chain = stabilizer_chain(gens)
    for p in itertools.permutations(range(len(gens[0]))):
        member = oracle.contains(combinatorics.Permutation(list(p)))
        assert (weyl._sift(p, chain) is None) == member, p


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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_gl_is_the_one_block_levi(n):
    levi = build_levi([n])
    assert levi != build_gl(n)
    assert levi._replace(family="gl", spec_string=f"gl:{n}") == build_gl(n)


def test_x0_basis():
    assert x0_basis(build_gl(2)) == ((1, 1),)
    assert x0_basis(build_levi([2, 3])) == (
        (1, 1, 0, 0, 0),
        (0, 0, 1, 1, 1),
    )


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


def test_weyl_group_cached_and_sorted():
    datum = build_gsp(4)
    first = datum.weyl_group()
    assert first is datum.weyl_group()
    assert isinstance(first, weyl.PermutationTable)
    assert list(first) == sorted(first)


DATUM_FIELDS = (
    "family",
    "spec_string",
    "lattice",
    "blocks",
    "b",
    "d_indices",
    "n_matrix",
    "simple_roots",
    "simple_coroots",
    "weyl_generators",
    "positive_root_sum_twice",
    "dual_lifts",
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
            "GroupDatum(family='gl', spec_string='gl:2', lattice="
        )

    def test_equal_data_compare_equal(self):
        # the lattice compares by value, so two builds of one spec are equal
        for spec in ("gl:3", "gsp:4", "go:5", "go:6", "levi:2,3"):
            first, second = parse_group_spec(spec), parse_group_spec(spec)
            assert first.lattice is not second.lattice
            assert first == second
            assert repr(first) == repr(second)
            assert " at 0x" not in repr(first)
        assert parse_group_spec("gsp:4") != parse_group_spec("go:4")

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

    def test_replace_builds_a_fresh_record(self):
        datum = build_gsp(4)
        datum.validation()
        assert datum._replace() == datum
        relabelled = datum._replace(family="go_odd")
        assert type(relabelled) is GroupDatum
        assert relabelled._cache == {}
        assert relabelled.family == "go_odd"
        assert relabelled._replace(family="gsp") == datum
        with pytest.raises(TypeError):
            datum._replace(rank=2)

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


def sign_test(vec, datum):
    """``classify.is_polynomial`` on a bare datum: the functional's sign."""
    return min(phi_ambient(vec, datum)) >= 0


def normalisation_pairs(datum):
    """Each dual lift of the weight basis with its reduced lift.

    The reduced lift subtracts the distinguished weight of the block
    holding the lift's last non-zero coordinate: the lift extends to the
    torus closure, but dropping one block indicator ruins that.
    """
    d_vecs = datum.d_vectors
    for lift in datum.dual_lifts:
        if len(d_vecs) == 1:
            d_for_block = d_vecs[0]
        else:
            blk = max(i for i, c in enumerate(lift) if c)
            d_for_block = next(
                dv for dv, blkidx in zip(d_vecs, datum.d_indices)
                if blk in datum.blocks[blkidx]
            )
        yield lift, tuple(a - b for a, b in zip(lift, d_for_block))


# -- the construction ladder: every fact the builders state, checked here --


def cartan_reference(datum):
    """The standard Cartan matrix of the datum's family and rank."""
    m = len(datum.simple_roots)
    mat = [[0] * m for _ in range(m)]

    def chain(lo, hi):
        for i in range(lo, hi):
            mat[i][i] = 2
            if i + 1 < hi:
                mat[i][i + 1] = mat[i + 1][i] = -1

    if datum.family in ("gl", "levi"):
        pos = 0
        for blk in datum.blocks:
            chain(pos, pos + len(blk) - 1)
            pos += len(blk) - 1
    elif datum.family == "gsp":
        chain(0, m)
        if m >= 2:
            mat[m - 1][m - 2] = -2
    elif datum.family == "go_odd":
        chain(0, m)
        if m >= 2:
            mat[m - 2][m - 1] = -2
    elif datum.family == "go_even":
        chain(0, m - 1)
        mat[m - 1][m - 1] = 2
        if m >= 3:
            mat[m - 1][m - 3] = mat[m - 3][m - 1] = -1
    else:
        raise ValueError(datum.family)
    return [tuple(row) for row in mat]


def rational_rank(rows):
    """The rank of integer rows over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def positive_root_sum(datum):
    """The sum of the family's positive roots e_i - e_j, one dense vector each.

    gl and Levi: i < j in one block.  The mirrored families: i < j with
    j at most the mirror i' = n - 1 - i, up to and including it for the
    symplectic family, whose long roots are e_i - e_i', and short of it
    for the orthogonal ones.
    """
    n = datum.ambient_dim
    if datum.family in ("gl", "levi"):
        pairs = [
            (i, j) for blk in datum.blocks for i, j in itertools.combinations(blk, 2)
        ]
    else:
        top = n - 1 if datum.family == "gsp" else n - 2
        pairs = [
            (i, j) for i, j in itertools.combinations(range(n), 2) if i + j <= top
        ]
    total = (0,) * n
    for i, j in pairs:
        root = tuple(1 if k == i else -1 if k == j else 0 for k in range(n))
        total = tuple(a + b for a, b in zip(total, root))
    return total


def construction_faults(datum):
    """Every construction fact the datum breaks, one message each.

    The facts: hypotheses (a), (b), (c-upper) and (d); kernel
    block-constancy; coroots that descend to the quotient and pair to 0
    with every block indicator; twice rho equal to the sum of the
    family's positive roots and pairing to 2 with every simple coroot;
    the family's Cartan matrix; generators that preserve the kernel; and
    one dual lift per coroot, dual to the coroots and polynomially
    normalised.  The sign test
    decides the normalisation only when the other facts hold, so it runs
    last and only then.
    """
    n = datum.ambient_dim
    lat = datum.lattice
    kernel = lat.kernel_basis
    d_vecs = datum.d_vectors
    coroots = datum.simple_coroots
    faults = []

    for i, b_vec in enumerate(datum.b):
        if not set(b_vec) <= {0, 1}:
            faults.append(f"(a): b[{i}] is not a 0/1 vector")
    supports = [tuple(k for k, c in enumerate(b_vec) if c) for b_vec in datum.b]
    if supports != [tuple(sorted(blk)) for blk in datum.blocks]:
        faults.append("(b): the supports of the b vectors are not the blocks")
    if sorted(i for s in supports for i in s) != list(range(n)):
        faults.append("(b): the supports do not partition the indices")
    perms = [g for g in datum.weyl_generators if sorted(g) == list(range(n))]
    if len(perms) != len(datum.weyl_generators):
        faults.append("(c-upper): a generator is not a permutation")
    rows = datum.n_matrix
    if len(rows) != len(datum.b) or any(
        len(row) != len(d_vecs) or min(row, default=0) < 0 for row in rows
    ):
        faults.append("(d): the n-matrix is not non-negative, blocks by d-list")
    for i, (b_vec, row) in enumerate(zip(datum.b, rows)):
        combo = tuple(
            sum(c * d[k] for c, d in zip(row, d_vecs)) for k in range(n)
        )
        if not lat.equal_mod_kernel(b_vec, combo):
            faults.append(f"(d): b[{i}] does not expand over the d classes")
    if rational_rank(list(d_vecs) + list(kernel)) != len(d_vecs) + len(kernel):
        faults.append("(d): the d classes are dependent modulo the kernel")

    for k in kernel:
        for bi, blk in enumerate(datum.blocks):
            if len({k[i] for i in blk}) > 1:
                faults.append(f"kernel vector {k} is not constant on block {bi}")
    if datum.positive_root_sum_twice != positive_root_sum(datum):
        faults.append("twice rho is not the sum of the family's positive roots")
    for j, cov in enumerate(coroots):
        if not lat.annihilates(cov):
            faults.append(f"(d): coroot {j} does not descend to the quotient")
        if any(pair(b_vec, cov) for b_vec in datum.b):
            faults.append(f"coroot {j} pairs non-zero with a block indicator")
        two_rho = pair(datum.positive_root_sum_twice, cov)
        if two_rho != 2:
            faults.append(
                f"twice the positive root sum pairs to {two_rho} with coroot {j}"
            )
    cartan = [
        tuple(pair(root, cov) for cov in coroots) for root in datum.simple_roots
    ]
    if cartan != cartan_reference(datum):
        faults.append("the Cartan matrix is not the family's")
    for g in perms:
        if not all(lat.contains(act(g, k)) for k in kernel):
            faults.append(f"generator {g} does not preserve the kernel")

    lifts = datum.dual_lifts
    if lifts is not None:
        if len(lifts) != len(coroots):
            faults.append("there is not one dual lift per simple coroot")
        for k, lift in enumerate(lifts):
            want = [
                datum.basis_pairing_diag[k] if j == k else 0
                for j in range(len(coroots))
            ]
            if [pair(lift, cov) for cov in coroots] != want:
                faults.append(f"dual lift {k} is not dual to the coroots")
        if not faults:
            for k, (lift, reduced) in enumerate(normalisation_pairs(datum)):
                if not sign_test(lift, datum):
                    faults.append(
                        f"dual lift {k} has no non-negative representative"
                    )
                if sign_test(reduced, datum):
                    faults.append(
                        f"reduced lift {k} has a non-negative representative"
                    )
    return faults


LEVI_SHAPES = ((1, 2, 3), (2, 2, 3), (1, 1, 2, 4), (2, 3), (1, 1, 2))

LADDER = (
    [(f"gl:{n}", None) for n in [*range(1, 13), 64]]
    + [(f"gsp:{n}", None) for n in [*range(2, 21, 2), 40]]
    + [(f"go:{n}", None) for n in [*range(3, 22), 40, 41]]
    + [
        ("levi:" + ",".join(map(str, shape)), order)
        for shape in LEVI_SHAPES
        for order in itertools.permutations(range(len(shape)))
    ]
)


@pytest.mark.parametrize(
    "spec,order",
    LADDER,
    ids=[spec + ("" if order is None else f"@{''.join(map(str, order))}")
         for spec, order in LADDER],
)
def test_construction_ladder(spec, order):
    datum = parse_group_spec(spec)
    if order is not None:
        datum = permute_d(datum, order)
    assert construction_faults(datum) == []
    assert datum.ambient_dim == sum(map(int, spec.partition(":")[2].split(",")))
    if datum.family == "go_even":
        assert datum.basis_pairing_diag is None
    else:
        assert validate_datum(datum).all_ok
        ones = (1,) * len(datum.simple_coroots)
        want = ones[:-1] + (2,) if datum.family == "go_odd" else ones
        assert datum.basis_pairing_diag == want


LEVI23 = build_levi([2, 3])

HYPOTHESIS_DEFECTS = [
    ("a", build_gl(2), {"b": ((2, 2),)}),
    ("b", LEVI23, {"blocks": ((2, 3, 4), (0, 1))}),
    ("c_upper", build_levi([1, 1]), {"weyl_generators": ((0, 0),)}),
    ("d", LEVI23, {"d_indices": (0, 0)}),
]


@pytest.mark.parametrize(
    "hypothesis,datum,changes",
    HYPOTHESIS_DEFECTS,
    ids=[case[0] for case in HYPOTHESIS_DEFECTS],
)
def test_validation_reports_each_hypothesis_defect(hypothesis, datum, changes):
    broken = datum._replace(**changes)
    report = validate_datum(broken)
    assert not getattr(report, hypothesis) and report.c_lower
    with pytest.raises(HypothesisFailure):
        ClassificationContext(broken, 3, 1)


def _shift_first_lift(datum, by):
    """The datum with ``by`` added to its first dual lift."""
    lift = tuple(a + b for a, b in zip(datum.dual_lifts[0], by))
    return datum._replace(dual_lifts=(lift,) + datum.dual_lifts[1:])


GSP4 = build_gsp(4)
GL3 = build_gl(3)

BROKEN = [
    ("dropped-block-indicator",
     _shift_first_lift(GSP4, tuple(-c for c in GSP4.d_vectors[0])),
     "dual lift 0 has no non-negative representative"),
    ("added-block-indicator", _shift_first_lift(GSP4, GSP4.d_vectors[0]),
     "reduced lift 0 has a non-negative representative"),
    # the kernel vector b_0 - b_1 is block-constant, but the functional
    # does not vanish on it: the d classes are dependent modulo the kernel
    ("kernel-meets-the-d-classes",
     build_levi([1, 1])._replace(lattice=QuotientLattice(2, [(1, -1)])),
     "(d): the d classes are dependent modulo the kernel"),
] + [
    (f"hypothesis-{hypothesis}", datum._replace(**changes),
     "(" + hypothesis.replace("_", "-") + ")")
    for hypothesis, datum, changes in HYPOTHESIS_DEFECTS
] + [
    ("kernel-not-block-constant",
     GSP4._replace(lattice=QuotientLattice(4, [(1, -1, 1, -1)])),
     "is not constant on block 0"),
    ("coroot-does-not-descend", GSP4._replace(simple_coroots=GSP4.simple_roots),
     "coroot 0 does not descend"),
    ("coroot-meets-a-block-indicator",
     GL3._replace(simple_coroots=((1, 0, 0),) + GL3.simple_coroots[1:]),
     "coroot 0 pairs non-zero with a block indicator"),
    ("wrong-two-rho", GL3._replace(positive_root_sum_twice=(1, 0, -1)),
     "twice the positive root sum pairs to 1 with coroot 0"),
    # a d vector pairs to 0 with every coroot, so only the sum sees it
    ("two-rho-plus-d",
     GSP4._replace(positive_root_sum_twice=tuple(
         a + b for a, b in zip(GSP4.positive_root_sum_twice, GSP4.d_vectors[0])
     )),
     "twice rho is not the sum of the family's positive roots"),
    ("reversed-roots", GL3._replace(simple_roots=GL3.simple_roots[::-1]),
     "the Cartan matrix is not the family's"),
    ("relabelled-family", GSP4._replace(family="go_odd"),
     "the Cartan matrix is not the family's"),
    ("kernel-not-preserved",
     GSP4._replace(
         weyl_generators=GSP4.weyl_generators + (transposition(4, 0, 1),)
     ),
     "does not preserve the kernel"),
    ("dual-lifts-swapped", GL3._replace(dual_lifts=GL3.dual_lifts[::-1]),
     "dual lift 0 is not dual to the coroots"),
]


@pytest.mark.parametrize(
    "datum,fault", [case[1:] for case in BROKEN], ids=[case[0] for case in BROKEN]
)
def test_construction_checker_flags_each_broken_datum(datum, fault):
    faults = construction_faults(datum)
    assert any(fault in found for found in faults), faults


# -- facts no validation witness covers: the context refuses them --

GL4 = build_gl(4)
GO6 = build_go_even(6)

# data that validate, but lack dual lifts or have lifts not dual to the coroots
NOT_DUAL = [
    ("coroot-dropped", GSP4._replace(simple_coroots=GSP4.simple_coroots[:1]),
     "has 2 dual lifts for 1 simple coroots"),
    ("coroot-lowered",
     GL4._replace(simple_coroots=((0, -1, 0, 0),) + GL4.simple_coroots[1:]),
     "dual lift 0 is not dual to the simple coroots with a positive pairing"),
    # lift 0 pairs to 0 with coroot 0 and to 1 with coroot 1
    ("dual-lifts-swapped", GL3._replace(dual_lifts=GL3.dual_lifts[::-1]),
     "dual lift 0 is not dual to the simple coroots with a positive pairing"),
    # the pairing diagonal is (0, 0)
    ("zero-pairing", GSP4._replace(dual_lifts=GSP4.dual_lifts[::-1]),
     "dual lift 0 is not dual to the simple coroots with a positive pairing"),
    # lift 1 pairs to 1 with coroot 0 and to 1 with its own coroot
    ("lift-meets-another-coroot",
     GL3._replace(dual_lifts=(GL3.dual_lifts[0], (2, 1, 0))),
     "dual lift 1 pairs to 1 with coroot 0"),
    ("coroot-meets-a-d-vector", build_gl(2)._replace(simple_coroots=((1, 0),)),
     "coroot 0 pairs non-zero with a d vector"),
    # go:6 passes (c-lower) once its within-block transpositions are
    # generators, but the family has no dual lifts
    ("no-dual-lifts",
     GO6._replace(weyl_generators=GO6.weyl_generators
                  + tuple(transposition(6, i, 5 - i) for i in range(3))),
     "has no dual lifts"),
]


@pytest.mark.parametrize(
    "datum,message", [case[1:] for case in NOT_DUAL], ids=[case[0] for case in NOT_DUAL]
)
def test_context_refuses_lifts_that_are_not_dual(datum, message):
    assert validate_datum(datum).all_ok
    with pytest.raises(DomainError, match=message):
        ClassificationContext(datum, 3, 1)


@pytest.mark.parametrize("name", ["ambient_dim", "weight_basis", "basis_pairing_diag"])
def test_derived_values_cannot_be_set(name):
    datum = build_go_odd(5)
    assert datum._cache == {"built-in": True}  # the builder's mark alone
    with pytest.raises(TypeError):
        datum._replace(**{name: getattr(datum, name)})
    assert datum.ambient_dim == datum.lattice.ambient_dim
    # the two lazy values are computed once, on first use
    assert getattr(datum, name) is getattr(datum, name)


def test_a_d_index_outside_b_is_reported():
    # levi:1,2 with its last b row dropped: d index 1 names no row
    levi = build_levi([1, 2])
    broken = levi._replace(b=levi.b[:1])
    assert validate_datum(broken).witnesses == (
        "(b): block indicator count 1 differs from block count 2",
        "(d): d index 1 names no row of the 1 block indicators",
    )
    with pytest.raises(HypothesisFailure, match=r"hypotheses \(b\), \(d\)$"):
        ClassificationContext(broken, 3, 1)
    with pytest.raises(DomainError, match=r"fails \(d\): d index 1 names no row"):
        check_assumption(broken, 3, 1, box_radius=1)


def test_a_generator_that_is_not_a_permutation_is_reported():
    # (1 3) is the only generator joining 1 and 3; without it W is not
    # defined, so the pair is a (c-lower) witness and nothing is listed
    go5 = build_go_odd(5)
    broken = go5._replace(
        weyl_generators=go5.weyl_generators[:2] + ((0, 3, 4, 1, 4),)
    )
    report = validate_datum(broken)
    assert report.witnesses == (
        "(c-upper): generator (0, 3, 4, 1, 4) is not a permutation",
        "(c-lower): transposition (1, 3) within block 1 is not in the "
        "generated Weyl group",
    )
    assert "weyl" not in broken._cache
    with pytest.raises(HypothesisFailure, match=r"\(c-lower\), \(c-upper\)$"):
        ClassificationContext(broken, 3, 1)
    assumption = check_assumption(broken, 3, 1, box_radius=1)
    assert assumption.additivity_witness.skipped
    # the entry points that list W refuse it
    with pytest.raises(PolyweightError, match="not a permutation"):
        weyl_orbit_witness_nonpolynomial((0,) * 5, (0,) * 5, broken, 3)
    with pytest.raises(PolyweightError, match="not a permutation"):
        broken.weyl_group()


MUTATION_BASES = [
    parse_group_spec(spec) for spec in ("gl:3", "gsp:4", "go:5", "levi:1,2", "go:6")
]
MUTABLE_FIELDS = (
    "lattice", "blocks", "b", "d_indices", "n_matrix", "simple_roots",
    "simple_coroots", "weyl_generators", "positive_root_sum_twice", "dual_lifts",
)


@st.composite
def one_field_mutation(draw):
    """A built-in datum, one of its fields and a new value for it: an
    entry dropped, duplicated or swapped with another, or one integer
    moved.  The value of ``lattice`` is its kernel basis."""
    datum = draw(st.sampled_from(MUTATION_BASES))

    def value_of(field):
        if field == "lattice":
            return datum.lattice.kernel_basis
        return getattr(datum, field)

    field = draw(st.sampled_from([f for f in MUTABLE_FIELDS if value_of(f)]))
    value = list(value_of(field))
    i = draw(st.integers(0, len(value) - 1))
    op = draw(st.sampled_from(["drop", "duplicate", "swap", "change"]))
    if op == "drop":
        del value[i]
    elif op == "duplicate":
        value.insert(i, value[i])
    elif op == "swap":
        j = draw(st.integers(0, len(value) - 1))
        value[i], value[j] = value[j], value[i]
    else:
        delta = draw(st.sampled_from([-2, -1, 1, 2, 5]))
        if isinstance(value[i], int):
            value[i] += delta
        else:
            row = list(value[i])
            k = draw(st.integers(0, len(row) - 1))
            row[k] += delta
            value[i] = tuple(row)
    return datum, field, tuple(value)


@settings(max_examples=300, deadline=2000)
@given(mutation=one_field_mutation(), data=st.data())
def test_a_mutated_datum_is_answered_or_refused(mutation, data):
    # building the mutated lattice and every entry point answer or raise
    # a PolyweightError, never another exception type
    base, field, value = mutation
    if field == "lattice":
        try:
            value = QuotientLattice(base.ambient_dim, value)
        except PolyweightError:
            return
    datum = base._replace(**{field: value})
    weight = data.draw(st.tuples(*[st.integers(-6, 6)] * datum.ambient_dim))
    calls = [
        datum.validation,
        lambda: decompose(weight, ClassificationContext(datum, 3, 1)),
        lambda: enumerate_Pr(ClassificationContext(datum, 2, 1)),
        lambda: check_assumption(datum, 3, 1, box_radius=1),
    ]
    for call in calls:
        try:
            call()
        except PolyweightError:
            pass


def test_validation_reports_a_coroot_that_does_not_descend():
    # (d) speaks of the characters killed by every coroot, defined on
    # classes only when the coroots descend; gsp(4)'s first simple root
    # pairs to 2 with its kernel vector, its second to 0
    broken = next(case[1] for case in BROKEN if case[0] == "coroot-does-not-descend")
    report = validate_datum(broken)
    failing = [h for h in ValidationReport._fields[:5] if not getattr(report, h)]
    assert failing == ["d"]
    assert report.witnesses == (
        "(d): simple coroot 0 does not annihilate the kernel, so it does not "
        "descend to the quotient",
    )
    with pytest.raises(HypothesisFailure, match=r"hypotheses \(d\)$"):
        ClassificationContext(broken, 3, 1)


def test_validation_reports_a_kernel_that_is_not_block_constant():
    # one block (0, 1) and the kernel spanned by (1, 0): (-5, 3) and
    # (0, 3) are one class, but the functional reads -5 on one and 0 on
    # the other, so is_polynomial would answer both ways on one class
    datum = GroupDatum(
        family="gl", spec_string="hand-built",
        lattice=QuotientLattice(2, ((1, 0),)), blocks=((0, 1),), b=((1, 1),),
        d_indices=(0,), n_matrix=((1,),), simple_roots=(), simple_coroots=(),
        weyl_generators=((1, 0),), positive_root_sum_twice=(0, 0),
        dual_lifts=(),
    )
    assert datum.lattice.equal_mod_kernel((-5, 3), (0, 3))
    report = validate_datum(datum)
    failing = [h for h in ValidationReport._fields[:5] if not getattr(report, h)]
    assert failing == ["d"]
    assert report.witnesses == (
        "(d): kernel vector (1, 0) is not constant on every block",
    )
    assert not kernel_block_constancy((1, 0), datum)
    with pytest.raises(HypothesisFailure, match=r"hypotheses \(d\)$"):
        ClassificationContext(datum, 3, 1)
    with pytest.raises(DomainError, match="is not constant on every block"):
        check_assumption(datum, 3, 1, box_radius=1)


# -- polynomial normalisation: the sign test against the shift search --

NORMALISED_SPECS = (

    [f"gsp:{n}" for n in range(4, 11, 2)]
    + [f"go:{n}" for n in range(5, 10, 2)]
    + [f"gl:{n}" for n in range(2, 9)]
    + ["levi:1,2,3", "levi:2,2,3", "levi:1,1,2,4"]
)


@pytest.mark.parametrize("spec", NORMALISED_SPECS)
def test_normalisation_agrees_with_shift_search(spec):
    datum = parse_group_spec(spec)
    lat = datum.lattice
    pairs = list(normalisation_pairs(datum))
    assert len(pairs) == len(datum.simple_coroots)
    for lift, reduced in pairs:
        assert sign_test(lift, datum)
        assert has_nonneg_rep(lat, lift, lift_window(lift))
        assert not sign_test(reduced, datum)
        assert not has_nonneg_rep(lat, reduced, lift_window(reduced))


ORACLE_SPECS = [
    (spec, order) for spec, order in LADDER
    if parse_group_spec(spec).ambient_dim <= 21 or spec in ("gsp:40", "go:41")
]


@pytest.mark.parametrize(
    "spec,order",
    ORACLE_SPECS,
    # the identity order keeps the bare spec as its id
    ids=[spec if order is None or list(order) == sorted(order)
         else f"{spec}@{''.join(map(str, order))}" for spec, order in ORACLE_SPECS],
)
def test_context_inverts_the_basis_plus_kernel_stack(spec, order):
    datum = parse_group_spec(spec)
    if order is not None:
        datum = permute_d(datum, order)
    if datum.family == "go_even":
        with pytest.raises(HypothesisFailure):
            ClassificationContext(datum, 3, 1)
        return
    rows = ClassificationContext(datum, 3, 1).tables().coef
    stacked = datum.weight_basis + datum.lattice.kernel_basis
    assert len(stacked) == datum.ambient_dim
    assert len(rows) == len(datum.weight_basis)
    for i, row in enumerate(rows):
        assert [sum(a * b for a, b in zip(row, col)) for col in stacked] == [
            int(i == j) for j in range(len(stacked))
        ]


def test_the_context_reads_the_rows_of_the_datum():
    # the rows and their premises are checked once per datum, and the
    # context and its sweep tables hold those rows
    datum = build_go_odd(7)
    record = coordinate_rows(datum)
    assert record.fault is None and coordinate_rows(datum) is record
    ctx = ClassificationContext(datum, 3, 1)
    assert ctx.tables().coef is record.rows
    assert ctx.coordinates((1,) * 7) == tuple(map(sum, record.rows))


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
    lat = datum.lattice
    counts = {True: 0, False: 0}
    rng = range(-radius, radius + 1)
    for vec in itertools.product(rng, repeat=datum.ambient_dim):
        got = sign_test(vec, datum)
        assert got == has_nonneg_rep(lat, vec, box_window(vec, radius)), vec
        counts[got] += 1
    assert counts[True] and counts[False]


SHAPE_GAPS = [
    ("missing-n-matrix-row", "d", {"n_matrix": LEVI23.n_matrix[:1]},
     "(d): n-matrix row count 1 differs from block count 2"),
    ("short-n-matrix-row", "d", {"n_matrix": ((1,), (0, 1))},
     "(d): expansion of b[0] has length 1, not the d-list length 2"),
    ("extra-block-indicator", "b", {"b": LEVI23.b + (LEVI23.b[0],)},
     "(b): block indicator count 3 differs from block count 2"),
    ("short-coroot", "d", {"simple_coroots": ((1, -1),) + LEVI23.simple_coroots[1:]},
     "(d): simple coroot 0 has length 2, not 5"),
]


@pytest.mark.parametrize(
    "hypothesis,changes,witness",
    [case[1:] for case in SHAPE_GAPS],
    ids=[case[0] for case in SHAPE_GAPS],
)
def test_validation_rejects_shape_gaps(hypothesis, changes, witness):
    broken = LEVI23._replace(**changes)
    report = validate_datum(broken)
    assert report.witnesses == (witness,)
    failing = [h for h in ValidationReport._fields[:5] if not getattr(report, h)]
    assert failing == [hypothesis]
    with pytest.raises(HypothesisFailure):
        ClassificationContext(broken, 3, 1)


@pytest.mark.parametrize(
    "builder,size",
    [(build_gsp, 40), (build_go_odd, 41), (build_gsp, 400), (build_go_even, 400),
     (build_go_odd, 401)],
)
def test_high_rank_builds_and_validates(builder, size):
    begin = time.perf_counter()
    datum = builder(size)
    report = validate_datum(datum)
    elapsed = time.perf_counter() - begin
    assert datum.ambient_dim == size
    failing = [h for h in ValidationReport._fields[:5] if not getattr(report, h)]
    assert failing == (["c_lower"] if datum.family == "go_even" else [])
    # construction and validation are O(n^2); an O(n^3) step takes seconds here
    assert elapsed < 1.0, f"{datum.spec_string}: {elapsed:.2f} s"


def test_many_one_coordinate_blocks_validate():
    # the n-matrix of 1,024 one-coordinate blocks is the identity: the (d)
    # expansion skips its zeros, where multiplying every entry took a minute
    begin = time.perf_counter()
    report = validate_datum(build_levi([1] * 1024))
    elapsed = time.perf_counter() - begin
    assert report.all_ok
    assert elapsed < 2.0, f"{elapsed:.2f} s"


@pytest.mark.parametrize("spec", ["gl:256", "gsp:400", "go:401"])
def test_high_rank_context_inverse(spec):
    datum = parse_group_spec(spec)
    begin = time.perf_counter()
    ClassificationContext(datum, 3, 1)
    elapsed = time.perf_counter() - begin
    # the coordinate rows pair each coroot at its non-zero entries only,
    # so validation and the rows take a fraction of a second here
    assert elapsed < 1.0, f"{spec}: {elapsed:.2f} s"


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
