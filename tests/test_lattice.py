"""Quotient-lattice arithmetic and permutation helpers."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from orbit_oracle import halve_class

from polyweight import weyl
from polyweight.errors import (
    CapExceeded,
    DimensionMismatch,
    DomainError,
    PolyweightError,
)
from polyweight.groups import build_gsp
from polyweight.lattice import (
    PRIME_TEST_LIMIT,
    PRPOW_BIT_LIMIT,
    QuotientLattice,
    _echelonize,
    dot,
    int_text,
    is_prime,
    is_prime_power,
    pair,
    power_exceeds,
    prime_power,
    vec_add,
    vec_scale,
)
from polyweight.weyl import (
    act,
    act_covector,
    compose,
    generate_group,
    identity_perm,
    inverse,
    is_even_perm,
    is_perm,
    transposition,
)

GSP4_KERNEL = ((1, -1, -1, 1),)
GO5_KERNEL = ((1, 0, -2, 0, 1), (0, 1, -2, 1, 0))

vectors4 = st.tuples(*([st.integers(-30, 30)] * 4))
vectors5 = st.tuples(*([st.integers(-30, 30)] * 5))


def kernel_point(lattice, coeffs):
    total = (0,) * len(lattice.kernel_basis[0])
    for c, k in zip(coeffs, lattice.kernel_basis):
        total = vec_add(total, vec_scale(c, k))
    return total


class TestQuotientLattice:
    def test_trivial_kernel_is_identity(self):
        lat = QuotientLattice(3)
        assert lat.canonical_rep((5, -2, 7)) == (5, -2, 7)
        assert lat.kernel_rank == 0 and lat.rank == 3

    def test_equality_hash_and_repr_read_the_basis(self):
        lat = QuotientLattice(4, GSP4_KERNEL)
        same = QuotientLattice(4, [list(k) for k in GSP4_KERNEL])
        assert lat is not same
        assert lat == same and hash(lat) == hash(same)
        assert repr(lat) == repr(same) == "QuotientLattice(4, ((1, -1, -1, 1),))"
        assert repr(QuotientLattice(2)) == "QuotientLattice(2, ())"
        assert lat != QuotientLattice(4)
        assert lat != QuotientLattice(4, ((-1, 1, 1, -1),))
        assert lat != GSP4_KERNEL

    def test_dependent_kernel_vectors_are_rejected(self):
        with pytest.raises(DomainError, match="linearly dependent"):
            QuotientLattice(4, ((1, -1, -1, 1), (2, -2, -2, 2)))

    @pytest.mark.parametrize("n", [0, -1])
    def test_a_non_positive_dimension_is_rejected(self, n):
        with pytest.raises(DomainError, match="must be positive"):
            QuotientLattice(n)

    @given(vectors4, st.integers(-5, 5))
    def test_canonical_rep_constant_on_cosets(self, v, c):
        lat = QuotientLattice(4, GSP4_KERNEL)
        shifted = vec_add(v, kernel_point(lat, (c,)))
        assert lat.canonical_rep(shifted) == lat.canonical_rep(v)
        assert lat.equal_mod_kernel(shifted, v)

    @given(vectors5, st.integers(-4, 4), st.integers(-4, 4))
    def test_canonical_rep_idempotent(self, v, c1, c2):
        lat = QuotientLattice(5, GO5_KERNEL)
        rep = lat.canonical_rep(vec_add(v, kernel_point(lat, (c1, c2))))
        assert lat.canonical_rep(rep) == rep
        assert lat.equal_mod_kernel(rep, v)

    @given(vectors4)
    def test_distinct_cosets_get_distinct_reps(self, v):
        lat = QuotientLattice(4, GSP4_KERNEL)
        w = vec_add(v, (1, 0, 0, 0))
        assert not lat.equal_mod_kernel(v, w)
        assert lat.canonical_rep(v) != lat.canonical_rep(w)

    def test_contains(self):
        lat = QuotientLattice(4, GSP4_KERNEL)
        assert lat.contains((2, -2, -2, 2))
        assert lat.contains((0, 0, 0, 0))
        assert not lat.contains((1, -1, -1, 0))

    def test_annihilates(self):
        lat = QuotientLattice(4, GSP4_KERNEL)
        assert lat.annihilates((1, 1, 0, 0))
        assert not lat.annihilates((1, 0, 0, 0))

    def test_dimension_mismatch(self):
        lat = QuotientLattice(3)
        with pytest.raises(DimensionMismatch):
            lat.canonical_rep((1, 2))
        for check in (lat.contains, lat.annihilates):
            with pytest.raises(DimensionMismatch):
                check((1, 2))

    @given(vectors4, st.integers(-5, 5))
    def test_halve_class_doubles_back(self, v, c):
        # gsp(4)'s kernel is GSP4_KERNEL
        datum = build_gsp(4)
        lat = datum.lattice
        doubled = vec_scale(2, vec_add(v, kernel_point(lat, (c,))))
        half = halve_class(doubled, datum)
        assert lat.equal_mod_kernel(vec_scale(2, half), doubled)

    def test_halve_class_needs_even_class(self):
        datum = build_gsp(4)
        # (1, 1, 1, 1) is even only through a kernel shift
        assert halve_class((1, 1, 1, 1), datum) is not None
        with pytest.raises(ValueError):
            halve_class((1, 0, 0, 0), datum)


def _det(rows):
    """The determinant of a square integer matrix, by the Leibniz formula."""
    return sum(
        (1 if is_even_perm(s) else -1)
        * math.prod(row[j] for row, j in zip(rows, s))
        for s in itertools.permutations(range(len(rows)))
    )


def _minor_gcd(rows, k):
    """The gcd of the k x k minors: the same for every basis of a lattice."""
    n = len(rows[0]) if rows else 0
    return math.gcd(*(
        _det([[rows[i][j] for j in cols] for i in picked])
        for picked in itertools.combinations(range(len(rows)), k)
        for cols in itertools.combinations(range(n), k)
    ))


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(-6, 6)] * n), max_size=5)
        .map(lambda vecs: (n, vecs))
    )
)
def test_echelonize_is_the_hermite_form_of_the_span(case):
    n, vectors = case
    rows, cols = _echelonize(vectors, n)
    assert len(rows) == len(cols)
    assert cols == sorted(set(cols))
    for row, col in zip(rows, cols):
        assert len(row) == n
        assert not any(row[:col]) and row[col] > 0
        for other in rows:
            if other is not row:
                assert 0 <= other[col] < row[col]
    # every input reduces to zero against the rows, so the rows span at
    # least the input lattice; equal gcds of maximal minors (Cauchy-Binet)
    # then leave index 1, and a rank mismatch would make one gcd 0
    for vec in vectors:
        v = list(vec)
        for row, col in zip(rows, cols):
            q, rest = divmod(v[col], row[col])
            assert rest == 0
            v = [a - q * b for a, b in zip(v, row)]
        assert not any(v)
    assert _minor_gcd(vectors, len(rows)) == _minor_gcd(rows, len(rows))


@st.composite
def small_lattices(draw):
    """A quotient lattice of dimension at most 5 with a random kernel basis:
    the drawn vectors that raise the rank of those kept before them."""
    n = draw(st.integers(1, 5))
    basis = []
    for vec in draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=4)):
        if len(_echelonize(basis + [vec], n)[0]) > len(basis):
            basis.append(vec)
    return QuotientLattice(n, basis)


def _walk_contains(lat, vec):
    """Kernel membership by the divisibility walk: reduce against the
    echelon rows, and fail at the first pivot entry the pivot does not
    divide."""
    v = list(vec)
    for row, col in zip(lat._rows, lat._pivot_cols):
        q, rest = divmod(v[col], row[col])
        if rest:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


@given(small_lattices(), st.data())
def test_annihilates_is_the_dense_definition(lat, data):
    n = lat.ambient_dim
    for _ in range(3):
        cov = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
        dense = all(dot(k, cov) == 0 for k in lat.kernel_basis)
        assert lat.annihilates(cov) == dense


@given(small_lattices(), st.data())
def test_contains_agrees_with_the_divisibility_walk(lat, data):
    n = lat.ambient_dim
    coeffs = data.draw(st.lists(
        st.integers(-4, 4), min_size=lat.kernel_rank, max_size=lat.kernel_rank
    ))
    member = (0,) * n
    for c, k in zip(coeffs, lat.kernel_basis):
        member = vec_add(member, vec_scale(c, k))
    assert lat.contains(member) and _walk_contains(lat, member)
    nudge = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    for vec in (nudge, vec_add(member, nudge)):
        assert lat.contains(vec) == _walk_contains(lat, vec)


class TestPairing:
    @given(vectors4, st.integers(-3, 3))
    def test_pairing_descends_to_quotient(self, v, c):
        lat = QuotientLattice(4, GSP4_KERNEL)
        cov = (1, -1, 1, -1)
        assert lat.annihilates(cov)
        shifted = vec_add(v, kernel_point(lat, (c,)))
        assert pair(v, cov) == pair(shifted, cov)


class TestPermutations:
    def test_act_convention(self):
        # act(p, w) places w[i] at position p[i]
        p = (1, 2, 0)
        assert act(p, (10, 20, 30)) == (30, 10, 20)

    @given(st.permutations(range(5)), vectors5)
    def test_act_is_action(self, p, w):
        p = tuple(p)
        q = transposition(5, 0, 3)
        assert act(compose(p, q), w) == act(p, act(q, w))
        assert act(inverse(p), act(p, w)) == w

    @given(st.permutations(range(4)), vectors4)
    def test_covector_pairing_compatibility(self, p, w):
        # act_covector is the pullback: pairing against a moved weight
        # equals pairing the original weight against the moved covector
        p = tuple(p)
        cov = (2, -1, 0, 3)
        assert pair(act(p, w), cov) == pair(w, act_covector(p, cov))
        assert act_covector(inverse(p), act_covector(p, cov)) == cov

    def test_generate_group_s3(self):
        gens = (transposition(3, 0, 1), transposition(3, 1, 2))
        group = generate_group(gens)
        assert len(group) == 6
        assert identity_perm(3) in group
        assert all(is_perm(g) for g in group)

    def test_parity_counts_inversions(self):
        for p in itertools.permutations(range(5)):
            inversions = sum(
                p[i] > p[j] for i, j in itertools.combinations(range(5), 2)
            )
            assert is_even_perm(p) == (inversions % 2 == 0)
        assert is_even_perm(())

    def test_generate_group_cap(self, monkeypatch):
        gens = (transposition(3, 0, 1), transposition(3, 1, 2))
        monkeypatch.setattr(weyl, "WEYL_CAP", 5)
        with pytest.raises(CapExceeded, match="cap of 5 elements"):
            generate_group(gens)
        monkeypatch.setattr(weyl, "WEYL_CAP", 6)
        assert len(generate_group(gens)) == 6


def test_is_prime_small_values():
    primes = [2, 3, 5, 7, 11, 13, 97]
    composites = [-3, 0, 1, 4, 6, 9, 15, 91]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_matches_a_sieve_below_a_million():
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(range(q * q, limit, q)))
    assert [k for k in range(limit) if is_prime(k)] == [
        k for k in range(limit) if sieve[k]
    ]


@pytest.mark.parametrize(
    "composite",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # to every prime base up to 23
        318665857834031151167461,  # to every prime base up to 37
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(composite):
    assert not is_prime(composite)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(3 * (2**61 - 1))
    assert not is_prime((2**31 - 1) ** 2)
    with pytest.raises(DomainError):
        is_prime(PRIME_TEST_LIMIT)
    with pytest.raises(DomainError):
        is_prime(2**89 - 1)


def test_prime_power_checks_its_modulus():
    assert prime_power(3, 4) == 81
    # 2 has two bits, so 2^r passes exactly up to r = PRPOW_BIT_LIMIT / 2
    assert prime_power(2, PRPOW_BIT_LIMIT // 2) == 2 ** (PRPOW_BIT_LIMIT // 2)
    with pytest.raises(DomainError, match="bit_length"):
        prime_power(2, PRPOW_BIT_LIMIT // 2 + 1)
    with pytest.raises(DomainError, match="bit_length"):
        prime_power(3, 10**30)  # refused before the power is formed
    with pytest.raises(DomainError, match="prime"):
        prime_power(4, 1)
    with pytest.raises(DomainError, match="positive"):
        prime_power(3, 0)
    # never truncated: 2.5 raised pow's TypeError, and r = 1.5 made 3^1.5;
    # the repr of Fraction(HUGE, 3) raises ValueError, so its type is named
    for p, r in ((2.5, 1), (3, 1.5), (3.0, 1), (3, "2"), (Fraction(HUGE, 3), 1)):
        with pytest.raises(DomainError, match="must be an integer"):
            prime_power(p, r)


def test_is_prime_power_matches_trial_division():
    def by_trial(m):
        q = next(q for q in range(2, m + 1) if m % q == 0)
        while m % q == 0:
            m //= q
        return m == 1

    limit = 3_000
    assert [m for m in range(-3, limit) if is_prime_power(m)] == [
        m for m in range(2, limit) if by_trial(m)
    ]


def test_is_prime_power_on_large_values():
    assert is_prime_power(3**7000)  # 11,095 bits
    assert is_prime_power((2**61 - 1) ** 3)
    assert not is_prime_power(2**60 * 3)
    assert not is_prime_power(6**4000)
    with pytest.raises(DomainError, match="bit_length 12289 exceeds 12288"):
        is_prime_power(2**PRPOW_BIT_LIMIT)  # refused before any root
    with pytest.raises(DomainError, match="primality"):
        is_prime_power((2**89 - 1) ** 2)


HUGE = 10**5000  # past the 4,300 digits Python writes in decimal


def test_int_text_names_a_value_past_the_decimal_limit_by_its_bit_length():
    assert int_text(-3037000500) == "-3037000500"
    assert int_text(10**4299) == str(10**4299)  # 4,300 digits: still decimal
    assert int_text(HUGE) == "an integer of 16610 bits"
    assert int_text(-HUGE) == "a negative integer of 16610 bits"


def test_power_exceeds_matches_the_power():
    for base in range(1, 40):
        for exponent in range(0, 30):
            for cap in (1, 2, 7, 8, 9, 1_000, 10**6, 3**20):
                assert power_exceeds(base, exponent, cap) == (base**exponent > cap)


def _huge_requests():
    """Each entry point that takes an integer of unbounded size, with the
    value in that place; it must be refused with a PolyweightError."""
    from polyweight import _kernels
    from polyweight.affine import check_shift_bijection, orbit_in_box
    from polyweight.certify import check_assumption
    from polyweight.classify import ClassificationContext
    from polyweight.functional import _box
    from polyweight.groups import build_gl

    gl2 = build_gl(2)
    ctx = ClassificationContext(gl2, 3, 1)
    t = ctx.tables()
    both = {
        "prime_power-p": lambda v: prime_power(v, 1),
        "prime_power-r": lambda v: prime_power(2, v),
        "context-p": lambda v: ClassificationContext(gl2, v, 1),
        "context-r": lambda v: ClassificationContext(gl2, 3, v),
        "orbit_in_box-radius": lambda v: orbit_in_box((0, 0), 3, v, gl2),
        "orbit_in_box-p": lambda v: orbit_in_box((0, 0), v, 1, gl2),
        "check_shift_bijection-i": lambda v: check_shift_bijection((0, 0), v, ctx, 1),
        "check_shift_bijection-radius": lambda v: check_shift_bijection(
            (0, 0), 1, ctx, v
        ),
        "check_assumption-radius": lambda v: check_assumption(gl2, 3, 1, box_radius=v),
        "check_assumption-p": lambda v: check_assumption(gl2, v, 1),
        "check_assumption-r": lambda v: check_assumption(gl2, 3, v),
        "predicate_flags_box": lambda v: _kernels.predicate_flags_box(t, 3, v),
        "decompose_unique_sweep": lambda v: _kernels.decompose_unique_sweep(t, 3, v),
        "pair_witness_sweep": lambda v: _kernels.pair_witness_sweep(t, v),
        "poly_consistency_sweep": lambda v: _kernels.poly_consistency_sweep(t, v),
    }
    requests = [
        pytest.param(call, s * HUGE, id=f"{name}{sign}")
        for name, call in both.items()
        for sign, s in (("+", 1), ("-", -1))
    ]
    # a huge radius is a valid box, and a negative number is not prime
    requests.append(pytest.param(lambda v: _box(2, v), -HUGE, id="_box-"))
    requests.append(pytest.param(is_prime, HUGE, id="is_prime+"))
    return requests


@pytest.mark.parametrize("call, value", _huge_requests())
def test_a_huge_integer_is_refused_with_a_polyweight_error(call, value):
    # a refusal names the value by its bit length, where writing it in
    # decimal raised a bare ValueError ("Exceeds the limit (4300 digits)")
    with pytest.raises(PolyweightError) as refusal:
        call(value)
    assert len(str(refusal.value)) < 200
