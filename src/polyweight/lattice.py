"""Exact integer models of ambient and quotient character lattices.

A weight is a plain tuple of ints: the exponent vector of a character of
the diagonal torus of GL_n.  The character group of a subtorus cut out by
monomial relations is modelled as the ambient lattice Z^n together with an
explicit kernel sublattice; two ambient vectors name the same character of
the subtorus exactly when their difference lies in the kernel.  Everything
is computed in exact integer arithmetic.

Weyl elements, which permute the coordinates, live in
:mod:`polyweight.weyl`.
"""

import math
import operator

from .errors import DimensionMismatch, DomainError


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def int_text(value):
    """An integer for a message: in decimal, or by its bit length past
    Python's limit for writing one in decimal (4,300 digits by default)."""
    try:
        return str(value)
    except ValueError:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"


def power_exceeds(base, exponent, cap):
    """Whether base ** exponent > cap, for integers base, cap >= 1 and
    exponent >= 0, deciding by bit lengths before forming a large power."""
    if (base.bit_length() - 1) * exponent >= cap.bit_length():
        return True  # base^e >= 2^((bit_length - 1) e) > cap
    return base**exponent > cap


def check_dim(vec, n):
    if len(vec) != n:
        raise DimensionMismatch(f"expected length {n}, got {len(vec)}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# No odd composite below this is a strong pseudoprime to all of _MR_BASES
# (Sorenson & Webster, Math. Comp. 86 (2017) 985-1003).
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981

# No odd composite below this is a strong pseudoprime to 2, 3, 5 and 7,
# and this one is (Jaeschke, Math. Comp. 61 (1993) 915-926).
_FOUR_BASE_LIMIT = 3_215_031_751


def is_prime(m):
    """Deterministic Miller-Rabin test with the first 13 primes as bases,
    or the first four below 3,215,031,751, where they decide exactly.

    Exact below ``PRIME_TEST_LIMIT`` (about 3.317e24); larger values raise
    ``DomainError`` rather than get a probable answer.
    """
    if m < 2:
        return False
    if m >= PRIME_TEST_LIMIT:
        raise DomainError(
            f"primality of {int_text(m)} is not decided: the deterministic "
            f"test is exact only below {PRIME_TEST_LIMIT}"
        )
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:4] if m < _FOUR_BASE_LIMIT else _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# Largest modulus p^r, in bits, that ``prime_power`` forms.  The check is
# on p.bit_length() * r, an upper bound on the bit length of p^r, so it
# runs before the power exists (3^(10^7) alone takes seconds to form).
# Answers carry coordinates of about p^r's size, and CLI output must
# write them in decimal: Python converts at most 4,300 digits (about
# 14,284 bits) by default, so the bound leaves room for the small factors
# a coordinate adds.
PRPOW_BIT_LIMIT = 12_288


def _integer_root(value, k):
    """The integer part of the k-th root of a positive integer."""
    # Newton's step falls to the root from any start above it; this start
    # is math.log2's estimate raised past its rounding, so few steps run.
    e = math.log2(value) / k
    shift = max(int(e) - 60, 0)
    x = (int(2.0 ** (e - shift) * (1 + 2.0**-30)) + 1) << shift
    while True:
        y = ((k - 1) * x + value // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime_power(m):
    """Whether m = p^r for a prime p and some r >= 1; ``DomainError``
    above ``PRPOW_BIT_LIMIT`` bits, before any root is taken."""
    if m < 2:
        return False
    if m.bit_length() > PRPOW_BIT_LIMIT:
        raise DomainError(
            f"prime-power test refused: bit_length {m.bit_length()} "
            f"exceeds {PRPOW_BIT_LIMIT}"
        )
    # Take exact roots for exponent 2, then each odd one, while they come
    # out.  A base left that were a j-th power would have made the base at
    # j's turn one too, so it is no perfect power (every prime exponent is
    # tried), and m is a prime power iff that base is prime.
    base, k = m, 2
    while k <= base.bit_length():
        root = _integer_root(base, k)
        if root**k == base:
            base = root
        else:
            k += 1 if k == 2 else 2
    return is_prime(base)


def as_integer(value, name):
    """``value`` as an int, through ``operator.index``; ``DomainError``,
    never truncation, for a value that is not an integer, such as 2.5.

    The message names the value by its repr when that is short, and by
    its type otherwise: the repr of a ``Fraction`` with a huge numerator
    is long, or raises ``ValueError`` past 4,300 digits."""
    try:
        return operator.index(value)
    except TypeError:
        try:
            text = repr(value)
        except ValueError:
            text = ""
        if not 0 < len(text) <= 40:
            text = f"a {type(value).__name__} too long to write"
        raise DomainError(f"{name} must be an integer, got {text}") from None


def prime_power(p, r):
    """The modulus p^r, for a prime p and an exponent r >= 1.

    Raises ``DomainError`` when p or r is not an integer, p is not
    prime, r < 1, or p.bit_length() * r exceeds ``PRPOW_BIT_LIMIT``.
    """
    p, r = as_integer(p, "p"), as_integer(r, "r")
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {int_text(p)}")
    if r < 1:
        raise DomainError(f"r must be a positive integer, got {int_text(r)}")
    bits = p.bit_length() * r
    if bits > PRPOW_BIT_LIMIT:
        raise DomainError(
            f"modulus p^r = {p}^{int_text(r)} is refused: "
            f"bit_length(p) * r = {int_text(bits)} "
            f"exceeds {PRPOW_BIT_LIMIT}"
        )
    return p**r


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(k, a):
    return tuple(k * x for x in a)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _echelonize(vectors, n):
    """Integer row echelon form of the span of ``vectors``.

    Returns rows sorted by pivot column, with positive pivots and with the
    entries above each pivot reduced into [0, pivot): the Hermite normal
    form, which the span determines.  The row count equals the rank of the
    span.  Back-substitution runs from the last row up: each row is
    reduced in one pass against rows that are already final, touching
    only their non-zero entries.
    """
    rows = {}  # pivot column -> row (list)
    for vec in vectors:
        check_dim(vec, n)
        v = list(vec)
        col = 0
        while col < n:
            if v[col] == 0:
                col += 1
                continue
            if col not in rows:
                rows[col] = v
                break
            u = rows[col]
            g, s, t = _xgcd(u[col], v[col])
            cu, cv = u[col] // g, v[col] // g
            new_u = [s * a + t * b for a, b in zip(u, v)]
            new_v = [cu * b - cv * a for a, b in zip(u, v)]
            rows[col] = new_u
            v = new_v
            col += 1
    # Normalize: positive pivots, then back-reduce entries above pivots.
    for col, row in rows.items():
        if row[col] < 0:
            rows[col] = [-a for a in row]
    cols = sorted(rows)
    support = {}  # pivot column -> non-zero columns of its final row
    for i in reversed(range(len(cols))):
        row = rows[cols[i]]
        for lower in cols[i + 1:]:
            q = row[lower] // rows[lower][lower]
            if q:
                for k in support[lower]:
                    row[k] -= q * rows[lower][k]
        support[cols[i]] = [k for k, a in enumerate(row) if a]
    return [tuple(rows[c]) for c in cols], cols


class QuotientLattice:
    """Z^n modulo the integer span of an explicit kernel sublattice.

    The kernel basis is echelonized once at construction; canonical coset
    representatives come from reducing each pivot coordinate into
    [0, pivot).  A zero-kernel instance is a plain ambient lattice.
    Equality, hash and repr read the dimension and the kernel basis as
    given, so equal instances also share their echelon rows.
    """

    def __init__(self, ambient_dim, kernel_basis=()):
        if ambient_dim < 1:
            raise DomainError("ambient dimension must be positive")
        self.ambient_dim = ambient_dim
        self.kernel_basis = tuple(tuple(v) for v in kernel_basis)
        rows, cols = _echelonize(self.kernel_basis, ambient_dim)
        if len(rows) != len(self.kernel_basis):
            raise DomainError("kernel basis vectors are linearly dependent")
        self._rows = rows
        self._pivot_cols = cols
        self._support = None  # per coordinate: (kernel index, entry) pairs

    def _key(self):
        return self.ambient_dim, self.kernel_basis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"QuotientLattice({self.ambient_dim}, {self.kernel_basis!r})"

    @property
    def kernel_rank(self):
        return len(self._rows)

    @property
    def rank(self):
        """Rank of the quotient."""
        return self.ambient_dim - len(self._rows)

    def canonical_rep(self, weight):
        """The distinguished representative of the coset of ``weight``."""
        check_dim(weight, self.ambient_dim)
        v = list(weight)
        for row, col in zip(self._rows, self._pivot_cols):
            q = v[col] // row[col]
            if q:
                for i in range(self.ambient_dim):
                    v[i] -= q * row[i]
        return tuple(v)

    def contains(self, vec):
        """Whether ``vec`` lies in the integer span of the kernel basis.

        The reduced representative is unique per coset, so exactly the
        kernel vectors reduce to 0.
        """
        return not any(self.canonical_rep(vec))

    def equal_mod_kernel(self, a, b):
        check_dim(a, self.ambient_dim)
        check_dim(b, self.ambient_dim)
        return self.contains(vec_sub(a, b))

    def annihilates(self, covector):
        """Whether the covector kills every kernel vector (i.e. descends).

        Reads an index of the kernel's non-zero entries by coordinate,
        built on the first call, so a kernel vector costs only the
        entries it shares with the covector.
        """
        check_dim(covector, self.ambient_dim)
        if self._support is None:
            self._support = [[] for _ in range(self.ambient_dim)]
            for j, k in enumerate(self.kernel_basis):
                for i, x in enumerate(k):
                    if x:
                        self._support[i].append((j, x))
        sums = [0] * len(self.kernel_basis)
        for i, c in enumerate(covector):
            if c:
                for j, x in self._support[i]:
                    sums[j] += c * x
        return not any(sums)


def pair(weight, covector):
    """Integer pairing of a weight with a covector; it is defined on
    classes when ``QuotientLattice.annihilates`` the covector."""
    if len(weight) != len(covector):
        raise DimensionMismatch(
            f"weight length {len(weight)} vs covector length {len(covector)}"
        )
    return dot(weight, covector)
