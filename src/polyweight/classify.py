"""Membership predicates, the digit decomposition, and enumeration.

The classification machinery answers five questions about a character
class: polynomiality (sign of the functional), restrictedness (coroot
pairings inside the digit window), the digit-set membership combining
both with distinguished shifts, the unique base-plus-multiple
decomposition, and enumeration of the full digit set.  A context object
fixes the group datum and the modulus p^r, rejects data failing a
construction hypothesis, and reads the weight-basis coordinates of the
decomposition off the coroots and the n-matrix, inverting no matrix.  It
owns the rows the sweeps read (``Tables``), so it never loads ``_kernels``.
"""

import itertools
import math
import operator
from collections import namedtuple

from .errors import (
    CapExceeded,
    DecompositionUnavailable,
    DomainError,
    HypothesisFailure,
    PreconditionError,
)
from .functional import phi_ambient
from .groups import _CachedRecord
from .lattice import (
    as_integer,
    check_dim,
    is_prime_power,
    pair,
    prime_power,
    vec_add,
    vec_scale,
    vec_sub,
)
from .weyl import act, coordinate_rows, require

# Most candidates ``enumerate_Pr`` builds and tests in one call.
ENUMERATE_CAP = 1_000_000


class Tables(
    namedtuple(
        "Tables",
        [
            "n",         # ambient dimension
            "blocks",    # the block partition, one tuple of indices per block
            "n_matrix",  # one expansion row per block
            "coroots",   # simple coroots, as ambient covectors
            "dvecs",     # ambient coordinates of the d weights
            "coef",      # coordinate functionals w.r.t. the basis
            "basis",     # ambient basis vectors (dual part, then d part)
            "diag",      # pairing values of dual basis elements (1 or 2)
            "kernel",    # kernel basis vectors
        ],
    )
):
    """The rows a sweep reads, named as ``functional.phi_ambient`` reads them."""

    __slots__ = ()

    @property
    def ambient_dim(self):
        return self.n

    @property
    def x0_rank(self):
        return len(self.dvecs)


def tables_for(datum, coef=()):
    """The sweep tables of a datum.

    ``coef`` holds a ``ClassificationContext``'s coordinate rows.  Only
    the decomposition sweep reads them, with the weight basis and its
    pairing diagonal, which data without dual lifts leave empty.
    """
    return Tables(
        n=datum.ambient_dim,
        blocks=datum.blocks,
        n_matrix=datum.n_matrix,
        coroots=datum.simple_coroots,
        dvecs=datum.d_vectors,
        coef=tuple(coef),
        basis=datum.weight_basis or (),
        diag=datum.basis_pairing_diag or (),
        kernel=datum.lattice.kernel_basis,
    )


class ClassificationContext(_CachedRecord):
    """Group datum plus modulus, with the weight-basis coordinate rows.

    Only data satisfying every construction hypothesis are accepted,
    with ``HypothesisFailure`` otherwise.  Hypothesis (d) includes a
    kernel constant on every block, so the functional is constant on
    classes and ``is_polynomial`` is sign-faithful, and coroots that
    descend, so the predicates pair with them as they are.  The even
    orthogonal family is rejected here and served solely by the ambient
    counterexample entry points.  The coordinate rows, and the duality
    premises they rest on, are ``weyl.coordinate_rows``'s; a datum failing
    a premise is refused with ``DomainError``.  The modulus ``prpow`` = p^r
    is formed once, by ``lattice.prime_power``, which refuses a p^r past
    ``lattice.PRPOW_BIT_LIMIT`` bits.
    """

    _fields = ("datum", "p", "r")

    def __init__(self, datum, p, r):
        self.datum = datum
        self.p = p
        self.r = r
        self._cache = {}
        self.prpow = prime_power(p, r)
        self.__post_init__()

    def __post_init__(self):
        datum = self.datum
        report = datum.validation()
        if not report.all_ok:
            raise HypothesisFailure(
                f"datum {datum.spec_string} fails construction "
                f"hypotheses {', '.join(report.failed)}"
            )
        coords = coordinate_rows(datum)
        if coords.fault:
            raise DomainError(coords.fault)
        self._rows = coords.rows

    @property
    def rank(self):
        return len(self._rows)

    @property
    def dual_count(self):
        return len(self.datum.simple_coroots)

    def coordinates(self, weight):
        """Coordinates of the class in the weight basis (kernel dropped)."""
        check_dim(weight, self.datum.ambient_dim)
        return tuple(
            sum(c * x for c, x in zip(row, weight)) for row in self._rows
        )

    def x0_coordinates(self, weight):
        """The distinguished-part coordinates of the class."""
        return self.coordinates(weight)[self.dual_count:]

    def from_coordinates(self, coords):
        """The ambient weight with the given weight-basis coordinates."""
        n = self.datum.ambient_dim
        out = [0] * n
        for c, vec in zip(coords, self.datum.weight_basis):
            if c:
                for i, v in enumerate(vec):
                    out[i] += c * v
        return tuple(out)

    def tables(self):
        """The sweep kernels' tables of the datum and its coordinate rows."""
        return self._cached("tables", tables_for, self.datum, self._rows)

    def phi(self, weight):
        return phi_ambient(weight, self.datum)


def is_polynomial(weight, ctx):
    """Sign test: the class is polynomial iff the functional is >= 0.

    Polynomial means some representative of the class is coordinatewise
    non-negative.  The block-shift argument uses hypotheses (a), (b) and
    (d), and kernel block-constancy: every kernel vector k is constant on
    each block B, with value k_B there.  The context checks all four
    premises, because validation reports each kernel basis vector that
    is not block-constant as a (d) witness (``weyl.Premises.kernel``), and
    a block-constant basis spans only block-constant vectors.

    * phi is constant on the class.  A kernel shift moves all
      coordinates of a block by the same integer, so
      min_B(v + k) = min_B(v) + k_B, and phi_j(v + k) = phi_j(v) +
      phi_j(k).  By (a) and (b), k = sum_B k_B b_B, which by (d) is
      congruent to sum_j phi_j(k) d_j.  k itself is congruent to 0, and
      by (d) the d classes are independent modulo the kernel, so
      phi(k) = 0.
    * If some v + k is non-negative, every block minimum of it is, and
      phi(v) = phi(v + k) >= 0 because the n_Bj are non-negative.
    * If phi(v) >= 0, then v >= sum_B min_B(v) b_B coordinatewise, and
      that sum is congruent to sum_j phi_j(v) d_j, because each b_B is
      congruent to sum_j n_Bj d_j by (d).  So v is congruent to
      sum_j phi_j(v) d_j + (v - sum_B min_B(v) b_B), a sum of two
      non-negative vectors.

    The test takes time linear in the ambient dimension, where a search
    over kernel shifts grows exponentially with the kernel rank.
    ``check_assumption``'s positivity property compares the same sign
    test with such a search, once per vector of block minima in a box.
    """
    return min(ctx.phi(weight)) >= 0


def is_restricted(weight, ctx):
    """All simple-coroot pairings lie in [0, p^r - 1]."""
    return _restricted(weight, ctx.datum, ctx.prpow)


def _restricted(weight, datum, prpow):
    """``is_restricted`` for a datum and modulus, on ``weight`` as given."""
    for cov in datum.simple_coroots:
        if not 0 <= pair(weight, cov) < prpow:
            return False
    return True


def in_x0(weight, ctx):
    """All simple-coroot pairings vanish."""
    return all(pair(weight, cov) == 0 for cov in ctx.datum.simple_coroots)


def in_Pr(weight, ctx):
    """The digit-set predicate.

    Polynomial, restricted, and subtracting p^r times any distinguished
    weight leaves the polynomial cone.
    """
    return _in_pr(weight, ctx.datum, ctx.prpow)


def _in_pr(weight, datum, prpow):
    """``in_Pr`` for a datum and modulus, on ``weight`` as given.

    The bare form serves the even orthogonal family in ambient semantics.
    The functional is evaluated once: subtracting p^r d moves only the
    minima of the blocks that meet the support of d, so phi of the
    shifted weight is phi of the weight plus each such block's change of
    minimum times its n-matrix row, exactly.
    """
    value = phi_ambient(weight, datum)
    if min(value) < 0 or not _restricted(weight, datum, prpow):
        return False
    met_by_d = datum._cached("shift-blocks", _shift_blocks, datum)
    for d, met in zip(datum.d_vectors, met_by_d):
        shifted = value
        for blk, row in met:
            low = min(weight[a] for a in blk)
            moved = min(weight[a] - prpow * d[a] for a in blk) - low
            shifted = [v + moved * c for v, c in zip(shifted, row)]
        if min(shifted) >= 0:
            return False
    return True


def _shift_blocks(datum):
    """For each distinguished weight d, the blocks that meet its support,
    paired with their n-matrix rows; ``_in_pr`` keeps it per datum."""
    return tuple(
        tuple(
            (blk, row)
            for blk, row in zip(datum.blocks, datum.n_matrix)
            if any(d[a] for a in blk)
        )
        for d in datum.d_vectors
    )


class Decomposition(namedtuple("Decomposition", "lambda0 lambda_tilde")):
    """Base digit plus p^r-multiple split of a character class."""

    __slots__ = ()


def decompose(weight, ctx):
    """The unique split weight = lambda0 + p^r lambda_tilde (mod kernel).

    Step 1 reduces the weight-basis coordinates to digits mod p^r; the
    dual digits are forced by restrictedness, and a dual basis element
    that pairs to 2 with its coroot admits a digit only when twice the
    digit stays below p^r (classes violating this are not represented in
    the restricted set, and DecompositionUnavailable reports it).  Step 2
    shifts by the distinguished weights using the closed-form exponents
    floor(phi_j / p^r), landing in the digit set.
    """
    step = ctx.prpow
    coords = ctx.coordinates(weight)
    diag = ctx.datum.basis_pairing_diag
    ns = ctx.dual_count
    digits = []
    for k in range(ns):
        dig = coords[k] % step
        if diag[k] * dig > step - 1:
            raise DecompositionUnavailable(
                f"class has dual digit {dig} with pairing {diag[k] * dig} "
                f"outside [0, {step - 1}]; the restricted set contains no "
                "representative of this residue"
            )
        digits.append(dig)
    digits.extend(coords[k] % step for k in range(ns, ctx.rank))

    lam0_prime = ctx.from_coordinates(digits)
    phi0 = ctx.phi(lam0_prime)
    exps = [v // step for v in phi0]
    lam0 = lam0_prime
    for a, d in zip(exps, ctx.datum.d_vectors):
        if a:
            lam0 = vec_sub(lam0, vec_scale(step * a, d))

    tilde_coords = []
    for k in range(ctx.rank):
        base = (coords[k] - digits[k]) // step
        if k >= ns:
            base += exps[k - ns]
        tilde_coords.append(base)
    lam_tilde = ctx.from_coordinates(tilde_coords)

    if not in_Pr(lam0, ctx):
        raise AssertionError("decomposition left the digit set")
    recombined = vec_add(lam0, vec_scale(step, lam_tilde))
    if not ctx.datum.lattice.equal_mod_kernel(recombined, weight):
        raise AssertionError("decomposition does not recombine to the weight")
    return Decomposition(lambda0=lam0, lambda_tilde=lam_tilde)


def is_simple_polynomial(weight, ctx):
    """Whether the quotient part of the decomposition is polynomial."""
    return is_polynomial(decompose(weight, ctx).lambda_tilde, ctx)


def simple_membership(weight, ctx):
    """Like is_simple_polynomial, with undecomposable classes counted out.

    A class with no restricted digit representative lies outside the
    whole restricted-plus-multiple sum, hence outside the simple set;
    this helper answers False instead of raising.
    """
    try:
        return is_simple_polynomial(weight, ctx)
    except DecompositionUnavailable:
        return False


def enumerate_Pr(ctx):
    """All digit-set classes as sorted canonical representatives.

    Iterates the dual digits over their admissible ranges and the
    functional target over [0, p^r - 1]^l, reconstructs each candidate
    from the weight basis, and keeps the canonical representatives of
    those passing the literal predicate.  Raises CapExceeded, before
    building any candidate, when there are more than ``ENUMERATE_CAP`` of
    them.

    No two candidates share a class, so the representatives are sorted
    without a set.  The candidate of dual digits c and target t is
    sum_k c_k lift_k + sum_j (t_j - phi_j(base_c)) d_j, where base_c
    depends on c alone: its weight-basis coordinates are c, then
    t - phi(base_c), distinct for distinct (c, t).  Distinct coordinates
    are distinct classes because the weight basis and the kernel basis
    together form a basis of Z^n, which the context's premises give
    (``validation()`` passes and ``weyl.coordinate_rows`` finds no
    fault).  Two equal neighbours after the sort would break this, and
    raise.
    """
    step = ctx.prpow
    datum = ctx.datum
    ns = ctx.dual_count
    l = datum.x0_rank
    diag = datum.basis_pairing_diag
    sizes = [(step - 1) // diag[k] + 1 for k in range(ns)]
    candidates = math.prod(sizes) * step ** l
    if candidates > ENUMERATE_CAP:
        # the count itself can have more digits than str() converts
        raise CapExceeded(
            f"enumeration at p^r = {ctx.p}^{ctx.r} has more than "
            f"{ENUMERATE_CAP} candidates"
        )
    digit_ranges = [range(size) for size in sizes]
    out = []
    for digs in itertools.product(*digit_ranges):
        base = ctx.from_coordinates(list(digs) + [0] * l)
        phib = ctx.phi(base)
        for target in itertools.product(range(step), repeat=l):
            cand = base
            for tj, pj, d in zip(target, phib, datum.d_vectors):
                shift = tj - pj
                if shift:
                    cand = vec_add(cand, vec_scale(shift, d))
            if in_Pr(cand, ctx):
                out.append(datum.lattice.canonical_rep(cand))
    out.sort()
    if any(map(operator.eq, out, itertools.islice(out, 1, None))):
        raise AssertionError("enumeration met a class twice")
    return tuple(out)


def weyl_orbit_witness_nonpolynomial(lam0, lam_tilde, datum, prpow):
    """First Weyl element pushing lam0 + p^r lam_tilde out of the cone.

    Scans the full Weyl group in sorted order for w such that
    w.lam0 + p^r lam_tilde is not polynomial and returns the first hit,
    or None when every twist stays polynomial.  It evaluates the
    functional in ambient semantics, so it serves the even orthogonal
    family, which no context accepts; a caller with a context passes
    ``ctx.datum, ctx.prpow``.  ``weyl.require`` refuses, with
    ``DomainError``, a datum whose shape the functional cannot read, then
    one with a coroot that does not descend to the quotient.
    """
    check_dim(lam0, datum.ambient_dim)
    check_dim(lam_tilde, datum.ambient_dim)
    require(
        datum,
        coroots="the digit-set test pairs lam0 with each coroot, and a "
        "covector that is not kernel-annihilating pairs with no class",
    )
    if not _in_pr(lam0, datum, prpow):
        raise PreconditionError("lam0 is not in the digit set for this datum")
    shift = vec_scale(prpow, lam_tilde)
    for w in datum.weyl_group():
        if min(phi_ambient(vec_add(act(w, lam0), shift), datum)) < 0:
            return w
    return None


class CounterexampleReport(
    namedtuple(
        "CounterexampleReport",
        "prpow lam0 lam_tilde phi_lam0 phi_lam0_shifted phi_lam_tilde "
        "witness weyl_order",
    )
):
    """Evaluation of the even orthogonal rank-8 witness-failure scenario.

    ``witness`` is a Weyl element, or None when every twist stays
    polynomial.
    """

    __slots__ = ()


def go_even_counterexample(prpow):
    """The rank-8 even orthogonal scenario for a prime power with 4 | p^r - 1.

    The base weight takes value (p^r - 1)/2 on the first four coordinates
    and (p^r - 1)/4 on the last four; the quotient part is a fixed sign
    pattern.  The functional values are (p^r - 1), -1 after the
    distinguished shift, and -1 on the quotient part, yet no element of
    the 192-element Weyl group moves the combination out of the
    polynomial cone.
    """
    from .groups import build_go_even

    prpow = as_integer(prpow, "p^r")
    if not is_prime_power(prpow):
        raise PreconditionError(f"the scenario needs a prime power, got {prpow}")
    if (prpow - 1) % 4:
        raise PreconditionError(
            f"the scenario needs 4 | p^r - 1, got p^r = {prpow}"
        )
    datum = build_go_even(8)
    half = (prpow - 1) // 2
    quarter = (prpow - 1) // 4
    lam0 = (half,) * 4 + (quarter,) * 4
    lam_tilde = (0, 0, 0, 0, 1, 1, -1, 1)
    d = datum.d_vectors[0]
    return CounterexampleReport(
        prpow=prpow,
        lam0=lam0,
        lam_tilde=lam_tilde,
        phi_lam0=phi_ambient(lam0, datum),
        phi_lam0_shifted=phi_ambient(vec_sub(lam0, vec_scale(prpow, d)), datum),
        phi_lam_tilde=phi_ambient(lam_tilde, datum),
        witness=weyl_orbit_witness_nonpolynomial(lam0, lam_tilde, datum, prpow),
        weyl_order=len(datum.weyl_group()),
    )
