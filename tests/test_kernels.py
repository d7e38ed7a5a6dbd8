"""The sweep kernels agree with the loop reference and the scalar library.

The vectorised sweeps are compared with the plain loops in
``loop_kernels``, value for value in the fixed box order; the flag words
and the decomposition failures also with the scalar predicates
(``is_polynomial``, ``is_restricted``, ``in_Pr``, ``decompose``) on small
boxes.  The pair and positivity sweeps meet the scalar functional in
``tests/test_certify.py``, as the oracles of ``check_assumption``.  The
rest pins what the sweeps report on corrupted tables, their slabs,
radius refusals and integer lanes, and that importing the package loads
no numpy.
"""

import contextlib
import itertools
import random
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import loop_kernels
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyweight import _kernels as kernels
from polyweight import certify
from polyweight.classify import (
    ClassificationContext,
    Tables,
    decompose,
    in_Pr,
    is_polynomial,
    is_restricted,
)
from polyweight.errors import CapExceeded, DecompositionUnavailable, DomainError
from polyweight.functional import _box
from polyweight.groups import build_gl, build_go_odd, build_gsp, build_levi
from polyweight.lattice import vec_scale, vec_sub

GL2 = build_gl(2)
GL3 = build_gl(3)
GSP4 = build_gsp(4)
GO5 = build_go_odd(5)
LEVI23 = build_levi([2, 3])
# no simple coroot: the sweeps' restricted and feasible masks reduce
# zero columns
GL1 = build_gl(1)
LEVI111 = build_levi([1, 1, 1])

CASES = [
    (GL1, 3, 1, 2),
    (GL2, 2, 1, 2),
    (GL3, 3, 1, 2),
    (GSP4, 2, 2, 1),
    (GO5, 2, 1, 1),
    (LEVI23, 5, 1, 1),
    (LEVI111, 2, 2, 1),
]
CASE_IDS = ["gl1", "gl2", "gl3", "gsp4", "go5", "levi23", "levi111"]


def tables_of(datum, p, r):
    return ClassificationContext(datum, p, r).tables()


def box_points(n, radius):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def test_certification_leaves_numpy_unloaded():
    # the block-factored certificate is pure Python, in the library and
    # behind the CLI
    code = (
        "import sys; from polyweight import check_assumption, parse_group_spec; "
        "from polyweight.cli import main; "
        "report = check_assumption(parse_group_spec('go:5'), 3, 1); "
        "status = main(['--format', 'tsv', 'assumption-check', "
        "'--group', 'gsp:4', '--p', '2', '--r', '1']); "
        "print(report.all_ok, status, 'numpy' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["True", "0", "False"]


@pytest.mark.parametrize("datum,p,r,radius", CASES, ids=CASE_IDS)
class TestAgainstLoopReference:
    def test_pair_witness_sweep(self, datum, p, r, radius):
        t = tables_of(datum, p, r)
        assert kernels.pair_witness_sweep(
            t, radius
        ) == loop_kernels.pair_witness_sweep(t, radius)

    def test_predicate_flags_box(self, datum, p, r, radius):
        t = tables_of(datum, p, r)
        assert kernels.predicate_flags_box(t, p**r, radius + 1) == bytes(
            loop_kernels.predicate_flags_box(t, p**r, radius + 1)
        )

    def test_decompose_unique_sweep(self, datum, p, r, radius):
        t = tables_of(datum, p, r)
        for max_failures in (5, 10**6):
            assert kernels.decompose_unique_sweep(
                t, p**r, radius, max_failures
            ) == loop_kernels.decompose_unique_sweep(t, p**r, radius, max_failures)


def like(rows, flat):
    """``flat`` cut into rows of the lengths of ``rows``."""
    entries = iter(flat)
    return tuple(tuple(next(entries) for _ in row) for row in rows)


def test_corrupted_tables_match_loop_reference():
    # scrambled blocks, n-matrix, distinguished vectors and pairing
    # diagonals exercise failure reports the built-in data never reach;
    # an extra one-member block overlapping another breaks additivity
    # (the draws follow the tables' rows, row after row)
    rng = random.Random(3)
    for datum in [GL2, GL3, GSP4, GO5, LEVI23] * 4:
        t = tables_of(datum, 2, 1)
        members = [a for blk in t.blocks for a in blk]
        rng.shuffle(members)
        blocks = like(t.blocks, members)
        nmat = like(
            t.n_matrix, [rng.randint(-2, 2) for row in t.n_matrix for _ in row]
        )
        if t.n <= 4:
            bad = t._replace(
                blocks=blocks + ((rng.randrange(t.n),),),
                n_matrix=nmat + (tuple(rng.randint(1, 2) for _ in t.dvecs),),
            )
            assert kernels.pair_witness_sweep(
                bad, 1
            ) == loop_kernels.pair_witness_sweep(bad, 1)
        bad = t._replace(
            blocks=blocks,
            n_matrix=tuple(tuple(abs(c) for c in row) for row in nmat),
            dvecs=tuple(tuple(rng.randint(-1, 2) for _ in d) for d in t.dvecs),
            diag=tuple(rng.randint(1, 3) for _ in t.diag),
        )
        for prpow in (2, 3, 4):
            assert kernels.decompose_unique_sweep(
                bad, prpow, 1, 10**6
            ) == loop_kernels.decompose_unique_sweep(bad, prpow, 1, 10**6)
            assert kernels.predicate_flags_box(bad, prpow, 1) == bytes(
                loop_kernels.predicate_flags_box(bad, prpow, 1)
            )


def scalar_flag_words(ctx, radius):
    """The ``predicate_flags_box`` words of a box, from the public predicates."""
    expected = []
    for lam in box_points(ctx.datum.ambient_dim, radius):
        poly = is_polynomial(lam, ctx)
        restricted = is_restricted(lam, ctx)
        inrange = all(0 <= v <= ctx.prpow - 1 for v in ctx.phi(lam))
        literal = in_Pr(lam, ctx)
        expected.append(
            int(poly)
            | (int(restricted) << 1)
            | (int(inrange) << 2)
            | (int(literal) << 3)
        )
    return expected


class TestAgainstPublicPredicates:
    """The flag words match the high-level predicates in box order."""

    @pytest.mark.parametrize(
        "datum,p,r",
        [(GL1, 3, 1), (GL2, 2, 1), (GSP4, 3, 1), (LEVI111, 2, 2)],
        ids=["gl1", "gl2", "gsp4", "levi111"],
    )
    def test_flag_bits(self, datum, p, r):
        ctx = ClassificationContext(datum, p, r)
        radius = 2
        assert kernels.predicate_flags_box(ctx.tables(), p**r, radius) == bytes(
            scalar_flag_words(ctx, radius)
        )


class TestFailureReporting:
    def test_decompose_failures_on_odd_orthogonal(self):
        # the middle basis element pairs to 2, so odd residues have no
        # restricted digit representative and count as failures
        t = tables_of(GO5, 2, 1)
        checked, failures = kernels.decompose_unique_sweep(t, 2, 1)
        assert checked == 3**5
        assert failures
        assert all(count == 0 for _, count in failures)

    def test_max_failures_truncates(self):
        t = tables_of(GO5, 2, 1)
        _, failures = kernels.decompose_unique_sweep(t, 2, 1, max_failures=2)
        assert len(failures) == 2
        _, longer = kernels.decompose_unique_sweep(t, 2, 1, max_failures=5)
        assert longer[:2] == failures

    def test_poly_disagreement_tuple_matches(self):
        # corrupt the expansion matrix so the sign test and the shift
        # oracle disagree; the sweep reports the first such point
        t = tables_of(GL2, 2, 1)
        assert t.kernel == ()
        bad = t._replace(n_matrix=((-1,),))
        assert kernels.poly_consistency_sweep(bad, 1) == (
            1, ((-1, -1), True, False)
        )

    def test_poly_sweep_searches_long_kernel_chains_exactly(self):
        # one block per coordinate and the chain e_i - e_(i+1) as kernel:
        # the shifts reach every vector of the same coordinate sum, so a
        # point has a non-negative shift iff its sum, the functional, is
        # >= 0; (-1, -1, -1, -1, 1, 1, 1, 1) needs a shift coefficient of
        # 4, beyond the coordinate spread plus the radius
        t = tables_of(build_gl(8), 2, 1)
        chain = t._replace(
            blocks=tuple((a,) for a in range(8)),
            n_matrix=((1,),) * 8,
            kernel=tuple(
                tuple(int(a == i) - int(a == i + 1) for a in range(8))
                for i in range(7)
            ),
        )
        assert kernels.poly_consistency_sweep(chain, 1) == (3**8, None)

    def test_corrupted_blocks_report_first_failure(self):
        # gl(3) with coordinate 1 listed in two blocks, {0, 1} and {1}.
        # In box order the first outer weight with lam[0] < lam[1] is
        # (-1, 0, -1); the first inner weight whose minimum over {0, 1}
        # sits at position 1 is (0, -1, -1), the tenth.  The swap gives
        # u = (0, -2, -2) and phi(u) = -4, while phi(lam) + phi(lamp) =
        # -1 + -2 = -3.  Three full outer weights precede it: 3 * 27 + 10.
        t = tables_of(GL3, 2, 1)
        bad = t._replace(blocks=((0, 1), (1,)), n_matrix=((1,), (1,)))
        failure = ((-1, 0, -1), (0, -1, -1))
        assert kernels.pair_witness_sweep(bad, 1) == (91, failure)


def test_tables_replace_roundtrip():
    t = tables_of(GL2, 2, 1)
    assert isinstance(t, Tables)
    assert t._replace() == t


SCALAR_CASES = [
    (GL1, 2),
    (GL2, 2),
    (GL3, 2),
    (GSP4, 1),
    (GO5, 1),
    (LEVI23, 1),
    (LEVI111, 1),
]
SCALAR_IDS = ["gl1", "gl2", "gl3", "gsp4", "go5", "levi23", "levi111"]


MODULI = [(2, 1), (3, 1), (2, 2)]


def scalar_decompose_failures(ctx, radius):
    """Box weights without a decomposition, each with 0 decompositions.

    Where ``decompose`` succeeds, the digit-set member it returns is the
    only one among its distinguished shifts by p^r; this is checked on
    the way, so the list is what an exact sweep must report.
    """
    failures = []
    step = ctx.prpow
    for lam in box_points(ctx.datum.ambient_dim, radius):
        try:
            lam0 = decompose(lam, ctx).lambda0
        except DecompositionUnavailable:
            failures.append((lam, 0))
            continue
        hits = []
        for coeffs in itertools.product(range(-2, 3), repeat=ctx.datum.x0_rank):
            cand = lam0
            for c, d in zip(coeffs, ctx.datum.d_vectors):
                cand = vec_sub(cand, vec_scale(step * c, d))
            if in_Pr(cand, ctx):
                hits.append(coeffs)
        assert hits == [(0,) * ctx.datum.x0_rank], (lam, hits)
    return failures


class TestDecomposeSweepAgainstScalar:
    @pytest.mark.parametrize("p,r", MODULI, ids=["2^1", "3^1", "2^2"])
    @pytest.mark.parametrize("datum,radius", SCALAR_CASES, ids=SCALAR_IDS)
    def test_failures_are_the_undecomposable_classes(self, datum, radius, p, r):
        ctx = ClassificationContext(datum, p, r)
        size = (2 * radius + 1) ** datum.ambient_dim
        expected = scalar_decompose_failures(ctx, radius)
        assert kernels.decompose_unique_sweep(
            ctx.tables(), p**r, radius, max_failures=size
        ) == (size, tuple(expected))

    def test_max_failures_keeps_a_prefix(self):
        ctx = ClassificationContext(GO5, 3, 1)
        _, everything = kernels.decompose_unique_sweep(ctx.tables(), 3, 1, 10**6)
        assert len(everything) > 40
        for cap in (0, 1, 5, 40, len(everything), len(everything) + 1):
            checked, failures = kernels.decompose_unique_sweep(
                ctx.tables(), 3, 1, max_failures=cap
            )
            assert checked == 3**5
            assert failures == everything[:cap]

    def test_corrupted_pairing_diagonal(self):
        # declaring gl(2)'s dual basis element to pair to 2 makes every
        # class with an odd digit lam[0] - lam[1] mod 2 undecomposable
        t = tables_of(GL2, 2, 1)._replace(diag=(2,))
        expected = tuple(
            (lam, 0) for lam in box_points(2, 2) if (lam[0] - lam[1]) % 2
        )
        assert kernels.decompose_unique_sweep(t, 2, 2, 100) == (25, expected)


class TestSlabs:
    """Sweeps cut into many slabs return what one slab returns, and every
    slab holds at most ``_SLAB_BYTES`` bytes of box points."""

    @pytest.mark.parametrize("rows", [1, 4, 7, 30])
    def test_sweeps_do_not_depend_on_slab_size(self, monkeypatch, rows):
        gsp4 = tables_of(GSP4, 3, 1)
        go5 = tables_of(GO5, 3, 1)
        sweeps = [
            (gsp4, lambda: kernels.pair_witness_sweep(gsp4, 1)),
            (go5, lambda: kernels.decompose_unique_sweep(go5, 3, 1, 10**6)),
            (gsp4, lambda: kernels.predicate_flags_box(gsp4, 3, 2)),
        ]
        whole = [sweep() for _, sweep in sweeps]
        limits = []
        box_slabs = kernels._box_slabs

        def spy(np_, n, radius, dtype):
            limits.append(kernels._slab_rows(np_, n, dtype))
            return box_slabs(np_, n, radius, dtype)

        monkeypatch.setattr(kernels, "_box_slabs", spy)
        for (t, sweep), answer in zip(sweeps, whole):
            # these three sweeps run in int32 lanes, 4 bytes an entry
            monkeypatch.setattr(kernels, "_SLAB_BYTES", rows * t.n * 4)
            limits.clear()
            assert sweep() == answer
            assert limits and set(limits) == {rows}

    @pytest.mark.parametrize("n,radius", [(1, 3), (2, 2), (3, 1), (2, 9)])
    def test_slabs_walk_the_box_in_order(self, monkeypatch, n, radius):
        monkeypatch.setattr(kernels, "_SLAB_BYTES", 4 * n * 8)
        slabs = list(kernels._box_slabs(np, n, radius, np.int64))
        assert all(len(slab) <= 4 for slab in slabs)
        walked = [tuple(int(v) for v in row) for slab in slabs for row in slab]
        assert walked == list(box_points(n, radius))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_slab_fits_the_budget(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        dtype = data.draw(st.sampled_from([np.int32, np.int64]), label="lane")
        # boxes of at most 3^8 points, so the walk stays quick
        radius = data.draw(
            st.integers(0, max(r for r in range(9) if (2 * r + 1) ** n <= 3**8)),
            label="radius",
        )
        budget = data.draw(
            st.one_of(st.integers(1, 4096), st.just(kernels._SLAB_BYTES)),
            label="budget",
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_SLAB_BYTES", budget)
            slabs = list(kernels._box_slabs(np, n, radius, dtype))
        assert all(slab.dtype == dtype and slab.shape[1] == n for slab in slabs)
        assert all(slab.nbytes <= budget or len(slab) == 1 for slab in slabs)
        walked = [tuple(row) for slab in slabs for row in slab.tolist()]
        assert walked == list(box_points(n, radius))

    def test_slabs_hold_as_many_grids_as_fit(self, monkeypatch):
        # 12 rows of 3 int64 coordinates: grids of 5 points at radius 2,
        # two to a slab, and the 25 grids of the box in 13 slabs
        monkeypatch.setattr(kernels, "_SLAB_BYTES", 12 * 3 * 8)
        slabs = list(kernels._box_slabs(np, 3, 2, np.int64))
        assert [len(slab) for slab in slabs] == [10] * 12 + [5]

    def test_huge_radius_yields_bounded_slabs(self):
        radius = 3037000500
        rows = kernels._slab_rows(np, 3, np.int64)
        assert rows == kernels._SLAB_BYTES // 24
        slabs = kernels._box_slabs(np, 3, radius, np.int64)
        first, second = next(slabs), next(slabs)
        assert len(first) == len(second) == rows
        assert tuple(first[0]) == (-radius,) * 3
        assert tuple(second[0]) == (-radius, -radius, -radius + rows)

    @pytest.mark.parametrize(
        "sweep", ["decompose_unique_sweep", "predicate_flags_box"]
    )
    @pytest.mark.parametrize("datum", [GO5, LEVI23], ids=["go5", "levi23"])
    def test_sweep_working_set_is_bounded(self, datum, sweep):
        # a rank-5 box of 16,807 points at radius 3: a sweep that holds it
        # as one slab allocates 1.06 to 2.67 MiB on top of what it
        # returns; one of slabs of at most _SLAB_BYTES = 64 KiB allocates
        # 0.22 to 0.49 MiB, under twelve budgets (0.75 MiB)
        t = tables_of(datum, 2, 1)
        run = lambda: getattr(kernels, sweep)(t, 2, 3)  # noqa: E731
        run()  # numpy and the lane tables are loaded outside the trace
        tracemalloc.start()
        try:
            run()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < 12 * kernels._SLAB_BYTES, (peak - kept, kept)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in a call still running after ``seconds``, so a
    sweep that loops for ever fails instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# each box walk as (tables, modulus, radius) -> answer
BOX_WALKS = {
    "box": lambda t, prpow, radius: sum(1 for _ in _box(t.n, radius)),
    "pair_witness_sweep": lambda t, prpow, radius: kernels.pair_witness_sweep(
        t, radius
    ),
    "poly_consistency_sweep": lambda t, prpow, radius: (
        kernels.poly_consistency_sweep(t, radius)
    ),
    "predicate_flags_box": kernels.predicate_flags_box,
    "decompose_unique_sweep": kernels.decompose_unique_sweep,
}


class TestBoxRadius:
    """The radius rule of ``functional._box`` holds for every box walk."""

    @pytest.mark.parametrize("walk", BOX_WALKS.values(), ids=BOX_WALKS)
    @pytest.mark.parametrize("datum", [GL2, GL3], ids=["gl2", "gl3"])
    def test_a_negative_radius_is_refused(self, datum, walk):
        # without the rule, the box walk at R = -1 never ends and the numpy
        # sweeps end in numpy's "negative dimensions" ValueError
        t = tables_of(datum, 3, 1)
        with deadline(5), pytest.raises(DomainError, match="box radius"):
            walk(t, 3, -1)

    @pytest.mark.parametrize("walk", BOX_WALKS.values(), ids=BOX_WALKS)
    def test_a_radius_that_is_not_an_integer_is_refused(self, walk):
        # R = 2.5 walked half-integer points, and the numpy sweeps raised
        # TypeError
        t = tables_of(GL2, 3, 1)
        with pytest.raises(DomainError, match="box radius must be an integer"):
            walk(t, 3, 2.5)

    def test_the_refusal_comes_before_any_point(self):
        with pytest.raises(DomainError, match="at least 0, got -2"):
            _box(2, -2)
        with pytest.raises(DomainError, match="an integer, got 2.0"):
            _box(2, 2.0)
        # the repr of a Fraction past 4,300 digits raises ValueError
        with pytest.raises(DomainError, match="got a Fraction too long to write"):
            _box(2, Fraction(10**5000, 3))
        with pytest.raises(DomainError, match="box radius"):
            next(kernels._box_slabs(np, 3, -1, np.int32))

    def test_the_poly_sweep_refuses_a_box_past_the_class_cap(self, monkeypatch):
        # the box is counted on bit lengths before the first point
        t = tables_of(GL2, 3, 1)
        with deadline(1), pytest.raises(CapExceeded, match="more than 1000000 points"):
            kernels.poly_consistency_sweep(t, 10**5000)
        monkeypatch.setattr(certify, "CERTIFY_CLASS_CAP", 8)
        with pytest.raises(CapExceeded, match="radius 1 in dimension 2"):
            kernels.poly_consistency_sweep(t, 1)
        monkeypatch.setattr(certify, "CERTIFY_CLASS_CAP", 9)
        assert kernels.poly_consistency_sweep(t, 1) == (9, None)

    @pytest.mark.parametrize("datum", [GL2, GL3], ids=["gl2", "gl3"])
    def test_radius_zero_is_the_origin(self, datum):
        t = tables_of(datum, 3, 1)
        n = datum.ambient_dim
        assert list(_box(n, 0)) == [(0,) * n]
        assert list(_box(0, 5)) == [()]
        assert kernels.pair_witness_sweep(t, 0) == (1, None)
        assert kernels.poly_consistency_sweep(t, 0) == (1, None)
        assert list(kernels.predicate_flags_box(t, 3, 0)) == scalar_flag_words(
            ClassificationContext(datum, 3, 1), 0
        )
        assert kernels.decompose_unique_sweep(t, 3, 0) == (1, ())


class TestInt64Bound:
    """The vectorised sweeps refuse requests whose values could wrap."""

    def test_modulus_just_past_the_bound(self):
        t = tables_of(GL2, 2, 1)

        def fits(k):
            try:
                kernels.decompose_unique_sweep(t, 2**k, 0)
            except DomainError:
                return False
            return True

        usable = [k for k in range(1, 64) if fits(k)]
        top = usable[-1]
        assert usable == list(range(1, top + 1))
        assert 2 ** (top + 1) < 2**63
        with pytest.raises(DomainError):
            kernels.decompose_unique_sweep(t, 2 ** (top + 1), 1)
        # just inside the bound the values are still exact: every class
        # decomposes, and the scalar split agrees
        assert kernels.decompose_unique_sweep(t, 2**top, 1) == (9, ())
        ctx = ClassificationContext(GL2, 2, top)
        for lam in box_points(2, 1):
            assert in_Pr(decompose(lam, ctx).lambda0, ctx)
        flags = kernels.predicate_flags_box(t, 2**top, 1)
        assert [word >> 3 for word in flags] == [
            int(in_Pr(lam, ctx)) for lam in box_points(2, 1)
        ]

    def test_native_limit(self):
        t = tables_of(GO5, 2, 1)
        for prpow in (2**63, 3**40):
            with pytest.raises(DomainError):
                kernels.decompose_unique_sweep(t, prpow, 1)
            with pytest.raises(DomainError):
                kernels.predicate_flags_box(t, prpow, 1)

    def test_radius_past_the_bound(self):
        t = tables_of(GO5, 2, 1)
        # the n-matrix column sum is 2 + 2 + 1 = 5, so 2 * radius * 5 > 2^63
        radius = 2**63 // 10 + 1
        with pytest.raises(DomainError):
            kernels.pair_witness_sweep(t, radius)
        with pytest.raises(DomainError):
            kernels.decompose_unique_sweep(t, 2, 2**63)


def spy_lanes(monkeypatch):
    """The lane of every sweep from now on, in call order."""
    lanes = []
    lane = kernels._lane

    def recording(bound, kernel):
        lanes.append(lane(bound, kernel))
        return lanes[-1]

    monkeypatch.setattr(kernels, "_lane", recording)
    return lanes


def plain(answer):
    """Whether every number in a sweep answer is a plain ``int``."""
    if isinstance(answer, (tuple, list)):
        return all(map(plain, answer))
    return type(answer) is int


class TestLanes:
    """The sweeps answer alike in int32 and in int64 lanes.

    A sweep runs in int32 when its intermediate bound fits in 31 bits and
    in int64 when it fits in 63; the answers are the exact ones on both
    sides of the switch, every entry of a decomposition answer is a plain
    ``int``, and the flag words are a ``bytearray``.
    """

    @pytest.mark.parametrize("datum", [GL2, GO5], ids=["gl2", "go5"])
    def test_every_power_of_two_modulus(self, monkeypatch, datum):
        t = tables_of(datum, 2, 1)
        top = 1
        while True:
            try:
                kernels.decompose_unique_sweep(t, 2 ** (top + 1), 0)
            except DomainError:
                break
            top += 1
        lanes = spy_lanes(monkeypatch)
        size = 3**t.n
        for k in range(1, top + 1):
            ctx = ClassificationContext(datum, 2, k)
            sweep = kernels.decompose_unique_sweep(t, 2**k, 1, size)
            flags = kernels.predicate_flags_box(t, 2**k, 1)
            assert sweep == loop_kernels.decompose_unique_sweep(t, 2**k, 1, size)
            assert flags == bytes(loop_kernels.predicate_flags_box(t, 2**k, 1))
            assert sweep == (size, tuple(scalar_decompose_failures(ctx, 1)))
            assert flags == bytes(scalar_flag_words(ctx, 1))
            assert plain(sweep) and type(flags) is bytearray
        # both sweeps switch lanes once, from int32 to int64
        for sweep_lanes in (lanes[0::2], lanes[1::2]):
            switch = sweep_lanes.index("int64")
            assert 1 < switch < top
            assert sweep_lanes == ["int32"] * switch + ["int64"] * (top - switch)

    def test_decomposition_radii_on_both_sides_of_the_switch(self, monkeypatch):
        # go(5) with coordinate row 1, whose digit meets the pairing
        # diagonal entry 2, scaled by s: the radius term 2 * radius * s
        # is the bound, radius 1 the last in int32 lanes, and the box
        # corners reach it, so a wrapped row value would move a digit
        # mod 3 and with it the failure set (s is 2 mod 3, so the digit
        # varies)
        t = tables_of(GO5, 3, 1)
        s = (2**31 - 1) // 2 - 1
        scaled = t._replace(
            coef=tuple(
                tuple(s * c for c in row) if k == 1 else row
                for k, row in enumerate(t.coef)
            )
        )
        lanes = spy_lanes(monkeypatch)
        for radius in (1, 2):
            size = (2 * radius + 1) ** 5
            sweep = kernels.decompose_unique_sweep(scaled, 3, radius, size)
            assert sweep == loop_kernels.decompose_unique_sweep(
                scaled, 3, radius, size
            )
            assert sweep[1] and plain(sweep)
        assert lanes == ["int32", "int64"]

    def test_flag_and_pair_radii_on_both_sides_of_the_switch(self, monkeypatch):
        # gl(2) with its n-matrix entry scaled by s: at modulus 2 the flag
        # sweep's bound is (radius + 2) * s and the pair sweep's
        # 2 * radius * s, so radius 1 is the last in int32 lanes for both.
        # From radius 2 on phi(w.lam + lamp) passes 2^31 in absolute
        # value, and from radius 4 on phi itself, where a wrap would flip
        # the polynomial bit
        t = tables_of(GL2, 2, 1)
        s = (2**31 - 1) // 3
        scaled = t._replace(n_matrix=((s,),))
        lanes = spy_lanes(monkeypatch)
        for radius in (1, 2, 3, 4):
            flags = kernels.predicate_flags_box(scaled, 2, radius)
            assert flags == bytes(loop_kernels.predicate_flags_box(scaled, 2, radius))
            assert type(flags) is bytearray
            assert kernels.pair_witness_sweep(
                scaled, radius
            ) == loop_kernels.pair_witness_sweep(scaled, radius)
        assert lanes == ["int32"] * 2 + ["int64"] * 6


def test_package_import_does_not_load_numpy():
    # numpy is loaded by the sweeps only; neither numpy, nor a process
    # pool, nor the dataclasses machinery or fractions, is needed to
    # import the package
    unused = (
        "numpy",
        "concurrent.futures",
        "multiprocessing",
        "dataclasses",
        "inspect",
        "fractions",
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, polyweight; "
         f"print([m for m in {unused!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
