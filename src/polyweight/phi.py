"""The blockwise-minimum weight functional and its certification.

The functional phi maps an ambient weight to an integer vector of length
l by taking the minimum coordinate over each block and expanding through
the non-negative n-matrix.  It is constant on kernel classes, detects
membership in the polynomial cone through its sign, and is additive in a
Weyl-twisted sense: for any two weights some group element aligns the
block minima so that phi adds exactly.  ``check_assumption`` certifies
these facts exhaustively on coordinate boxes.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import _kernels
from .errors import DomainError, HypothesisFailure, PreconditionError
from .lattice import act, check_dim, is_prime, vec_add, vec_scale


class PhiData(namedtuple("PhiData", "blocks n_matrix target_rank")):
    """Block partition and expansion matrix defining the functional."""

    __slots__ = ()

    def __new__(cls, blocks, n_matrix, target_rank):
        seen = sorted(i for blk in blocks for i in blk)
        if seen != list(range(len(seen))):
            raise DomainError("blocks must partition the ambient indices")
        for row in n_matrix:
            if len(row) != target_rank:
                raise DomainError("n-matrix row length must equal the target rank")
            if row and min(row) < 0:
                raise DomainError("n-matrix entries must be non-negative")
        if len(n_matrix) != len(blocks):
            raise DomainError("one n-matrix row is needed per block")
        return super().__new__(cls, blocks, n_matrix, target_rank)

    @property
    def ambient_dim(self):
        return sum(len(blk) for blk in self.blocks)

    @classmethod
    def from_datum(cls, datum):
        cache = datum._cache
        if "phidata" not in cache:
            cache["phidata"] = cls(
                blocks=datum.blocks,
                n_matrix=datum.n_matrix,
                target_rank=datum.x0_rank,
            )
        return cache["phidata"]


def phi_ambient(weight, data):
    """Evaluate the functional on ambient coordinates."""
    check_dim(weight, data.ambient_dim)
    out = [0] * data.target_rank
    for blk, row in zip(data.blocks, data.n_matrix):
        m = min(weight[a] for a in blk)
        for j, coeff in enumerate(row):
            if coeff:
                out[j] += m * coeff
    return tuple(out)


def phi(weight, datum, ambient=False):
    """Evaluate the functional on a character class.

    Quotient semantics require a datum satisfying all construction
    hypotheses, because only then is the value provably independent of
    the chosen representative and sign-faithful for the polynomial cone.
    Callers studying the even orthogonal family must request ambient
    semantics explicitly.
    """
    if not ambient and not datum.validation().all_ok:
        raise HypothesisFailure(
            f"datum {datum.spec_string} fails a construction hypothesis; "
            "pass ambient=True to evaluate on a fixed representative"
        )
    return phi_ambient(weight, PhiData.from_datum(datum))


def tables_for(datum):
    """Flat integer tables consumed by the sweep kernels."""
    n = datum.ambient_dim
    boff = [0]
    bmem = []
    for blk in datum.blocks:
        bmem.extend(blk)
        boff.append(len(bmem))
    kernel = datum.lattice.kernel_basis
    return _kernels.Tables(
        n=n,
        s=datum.num_blocks,
        l=datum.x0_rank,
        boff=tuple(boff),
        bmem=tuple(bmem),
        nmat=tuple(c for row in datum.n_matrix for c in row),
        krank=len(kernel),
        kernel=tuple(c for vec in kernel for c in vec),
    )


def find_witness_w(lam, lam_prime, datum):
    """A Weyl element making the functional add on the given pair.

    The constructive choice transposes, within every block, the position
    of ``lam``'s block minimum onto a position where ``lam_prime``
    attains its block minimum; each such transposition lies in the Weyl
    group by the lower group hypothesis.  It always works: on every
    block B the two minima then sit at one position, so
    min_B(w.lam + lam_prime) = min_B(lam) + min_B(lam_prime), and phi
    adds blockwise.  The additivity postcondition is checked anyway and
    raises ``AssertionError`` on a miss, also under ``python -O``.
    """
    report = datum.validation()
    if not report.c_lower:
        raise HypothesisFailure(
            f"datum {datum.spec_string} fails the lower Weyl-group hypothesis; "
            "no witness construction is available"
        )
    n = datum.ambient_dim
    check_dim(lam, n)
    check_dim(lam_prime, n)
    data = PhiData.from_datum(datum)
    target = vec_add(phi_ambient(lam, data), phi_ambient(lam_prime, data))

    w = tuple(range(n))
    for blk in datum.blocks:
        a0 = min(blk, key=lambda a: (lam[a], a))
        m1 = min(lam_prime[a] for a in blk)
        if lam_prime[a0] == m1:
            continue
        a1 = min(a for a in blk if lam_prime[a] == m1)
        if a0 != a1:
            w = tuple(
                a1 if x == a0 else a0 if x == a1 else x for x in w
            )
    if phi_ambient(vec_add(act(w, lam), lam_prime), data) != target:
        raise AssertionError("the canonical witness does not restore additivity")
    return w


def kernel_block_constancy(mu, datum):
    """Whether a kernel element is constant on every block."""
    check_dim(mu, datum.ambient_dim)
    if not datum.lattice.contains(mu):
        raise PreconditionError("weight is not in the kernel sublattice")
    for blk in datum.blocks:
        first = mu[blk[0]]
        if any(mu[a] != first for a in blk[1:]):
            return False
    return True


class PropertyVerdict(
    namedtuple(
        "PropertyVerdict",
        "name ok checked witness skipped",
        defaults=("", False),
    )
):
    """One certified property: verdict, points checked, first witness."""

    __slots__ = ()


class AssumptionReport(
    namedtuple(
        "AssumptionReport",
        "group p r box_radius positivity homogeneity additivity_witness "
        "x0_bijection",
    )
):
    """Outcome of the exhaustive box certification of the four properties."""

    __slots__ = ()

    @property
    def properties(self):
        return (
            self.positivity,
            self.homogeneity,
            self.additivity_witness,
            self.x0_bijection,
        )

    @property
    def all_ok(self):
        return all(v.ok for v in self.properties if not v.skipped)


def _pair_chunk(args):
    tables, radius, start, stop = args
    return _kernels.pair_witness_sweep(tables, radius, start, stop)


def default_box_radius(ambient_dim):
    """Box radius keeping the exhaustive suites fast: 2 beyond dimension 4."""
    return 2 if ambient_dim >= 5 else 3


def check_assumption(datum, p, r, box_radius=None, jobs=1):
    """Certify the four functional properties on a coordinate box.

    Property 1 (positivity) compares the sign test against a shift-search
    oracle that never evaluates the functional.  Property 2 is exact
    p^r-homogeneity.  Property 3 certifies the additivity witness for
    every ordered pair of box weights, and is skipped with an explicit
    marker for data failing the lower Weyl-group hypothesis.  Property 4
    checks that the functional inverts the distinguished combinations
    c |-> sum c_j d_j.  Failures are reported with witnesses, never
    raised.  ``jobs`` partitions the pair sweep; results do not depend
    on the partition.  With ``jobs > 1`` a process pool is started on
    demand for the sweep, so importing this module never loads
    ``concurrent.futures`` or ``multiprocessing``.
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if r < 1:
        raise DomainError(f"r must be a positive integer, got {r}")
    n = datum.ambient_dim
    radius = default_box_radius(n) if box_radius is None else int(box_radius)
    if radius < 1:
        raise DomainError("box radius must be at least 1")
    tables = tables_for(datum)
    data = PhiData.from_datum(datum)
    prpow = p ** r

    checked, fail = _kernels.poly_consistency_sweep(tables, radius)
    positivity = PropertyVerdict(
        name="positivity",
        ok=fail is None,
        checked=checked,
        witness=(
            ""
            if fail is None
            else f"weight {fail[0]}: sign test {fail[1]}, shift oracle {fail[2]}"
        ),
    )

    hom_checked = 0
    hom_witness = ""
    box = itertools.product(range(-radius, radius + 1), repeat=n)
    for lam in box:
        hom_checked += 1
        if phi_ambient(vec_scale(prpow, lam), data) != vec_scale(
            prpow, phi_ambient(lam, data)
        ):
            hom_witness = f"weight {lam}"
            break
    homogeneity = PropertyVerdict(
        name="homogeneity", ok=not hom_witness, checked=hom_checked
    )

    if not datum.validation().c_lower:
        additivity = PropertyVerdict(
            name="additivity_witness",
            ok=False,
            checked=0,
            witness="hypothesis (c-lower) fails; witness construction unavailable",
            skipped=True,
        )
    else:
        width = 2 * radius + 1
        total = width ** n
        if jobs <= 1 or total < 2 * jobs:
            pair_checked, pair_fail = _kernels.pair_witness_sweep(tables, radius)
        else:
            from concurrent.futures import ProcessPoolExecutor

            bounds = [total * k // jobs for k in range(jobs + 1)]
            chunks = [
                (tables, radius, bounds[k], bounds[k + 1]) for k in range(jobs)
            ]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_pair_chunk, chunks))
            pair_checked = 0
            pair_fail = None
            for got, failure in results:
                pair_checked += got
                if failure is not None:
                    pair_fail = failure
                    break
        additivity = PropertyVerdict(
            name="additivity_witness",
            ok=pair_fail is None,
            checked=pair_checked,
            witness="" if pair_fail is None else f"pair {pair_fail[0]}, {pair_fail[1]}",
        )

    l = datum.x0_rank
    d_vecs = datum.d_vectors
    x0_checked = 0
    x0_witness = ""
    for coeffs in itertools.product(range(-radius, radius + 1), repeat=l):
        combo = (0,) * n
        for c, d in zip(coeffs, d_vecs):
            if c:
                combo = vec_add(combo, vec_scale(c, d))
        x0_checked += 1
        if phi_ambient(combo, data) != coeffs:
            x0_witness = f"coefficients {coeffs}"
            break
    x0_bijection = PropertyVerdict(
        name="x0_bijection", ok=not x0_witness, checked=x0_checked, witness=x0_witness
    )

    return AssumptionReport(
        group=datum.spec_string,
        p=p,
        r=r,
        box_radius=radius,
        positivity=positivity,
        homogeneity=homogeneity,
        additivity_witness=additivity,
        x0_bijection=x0_bijection,
    )
