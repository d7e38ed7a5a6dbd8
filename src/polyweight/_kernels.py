"""The box-sweep kernels: the library's one batch layer.

The heavy loops (all-pairs witness certification, decomposition
uniqueness sweeps, box-wide predicate evaluation) use exact integer
semantics and a fixed iteration order (ascending lexicographic over
closed integer boxes, last coordinate fastest).  The test suite compares
them against the scalar library and against the plain loops in
``tests/loop_kernels.py``.

``pair_witness_sweep`` and ``poly_consistency_sweep`` visit every point
of a box.  ``certify.check_assumption`` decides the same properties
without them, additivity by proof and positivity once per vector of
block minima; they are the exhaustive oracles the test suite compares
it with.  ``poly_consistency_sweep`` runs the certificate's exact
kernel-shift search at every point and imports ``certify`` only when
it runs.

``pair_witness_sweep``, ``predicate_flags_box`` and
``decompose_unique_sweep`` evaluate a slab of box points at a time with
numpy integer arrays; ``poly_consistency_sweep`` loops over the box
point by point.  A slab holds at most ``_SLAB_BYTES`` (64 KiB) of
points: ``_SLAB_BYTES // (n * itemsize)`` rows of n coordinates in the
sweep's lane, and at least one.  Every per-slab temporary is a few
arrays of those rows, so the working set of a sweep is bounded in bytes
whatever the rank and the lane; it sets part of the peak memory of a
caller that sweeps many boxes.  A slab stacks as many whole grids of
trailing coordinates as fit, because each slab costs a fixed number of
numpy calls.  The sweeps' per-row minima, maxima, all and any reduce a
few columns each, and go through ``_fold``, over column views.
``predicate_flags_box`` packs one flag word per point into a byte.
Before sweeping, the vectorised kernels bound every intermediate from
the radius, the modulus and the table entries.  The bound picks the
lane width: int32 when it fits in 31 bits, int64 when it fits in 63,
and DomainError beyond, so no value wraps.  numpy is imported inside
those functions only, so importing the package does not load it.

Every kernel reads a ``classify.Tables`` bundle of the datum's own rows
(``ClassificationContext.tables()``) by attribute, and evaluates the
scalar functional with ``functional.phi_ambient`` on it.  No package module
imports this one: a caller of a sweep imports it.
"""

from functools import reduce
from itertools import groupby, islice, product

from .errors import CapExceeded, DomainError
from .functional import _box, phi_ambient
from .lattice import int_text, power_exceeds

_INT32_MAX = 2**31 - 1
_INT64_MAX = 2**63 - 1

# Most bytes of box points a vectorised sweep holds at once, in one slab;
# ``_slab_rows`` turns it into rows for a dimension and a lane.
_SLAB_BYTES = 1 << 16


def _max_abs_sum(vectors):
    """Largest sum of absolute entries over the given vectors."""
    return max((sum(abs(c) for c in vec) for vec in vectors), default=0)


def _nmat_colsum(t):
    """Largest absolute column sum of the n-matrix (at least 1): the
    factor by which phi can exceed the largest entry of its argument."""
    return max(_max_abs_sum(zip(*t.n_matrix)), 1)


def _lane(bound, kernel):
    """The numpy dtype of a sweep whose intermediates stay within
    ``bound`` in absolute value: int32 up to 2^31 - 1, int64 up to
    2^63 - 1, and DomainError beyond."""
    if bound > _INT64_MAX:
        raise DomainError(
            f"{kernel}: intermediate values may reach {int_text(bound)}, "
            "beyond the 64-bit range of the vectorised sweep"
        )
    return "int32" if bound <= _INT32_MAX else "int64"


def _slab_rows(np, n, dtype):
    """Most rows of a slab of n coordinates of ``dtype``: as many as fit
    in _SLAB_BYTES, and at least one."""
    return max(_SLAB_BYTES // (n * np.dtype(dtype).itemsize), 1)


def _box_slabs(np, n, radius, dtype):
    """The box [-radius, radius]^n in box order, as slabs of ``dtype``.

    A slab holds at most ``_slab_rows(np, n, dtype)`` points, so at most
    _SLAB_BYTES bytes (or one row) whatever n and the lane.  The trailing
    coordinates form a fixed grid of at most that many points, and the
    leading ones are walked in Python; a slab stacks the grids of as many
    consecutive leading prefixes as fit, so every slab but the last is at
    least half full and a slab's fixed cost in numpy calls is spread over
    as many points as the budget allows.  When a single coordinate is
    wider than a slab, the last one is cut into runs, and when the grid
    is the whole box it is the one slab.  The caller picks ``dtype`` with
    ``_lane``, from a bound of at least the radius.
    """
    rows = _slab_rows(np, n, dtype)
    width = 2 * radius + 1
    k, size = 0, 1
    while k < n and size * width <= rows:
        k += 1
        size *= width
    lead = n - max(k, 1)
    prefixes = _box(lead, radius)  # refuses a negative radius
    if k:
        tail = np.indices((width,) * k, dtype=dtype).reshape(k, -1).T - radius
        if k == n:
            yield tail
            return
        while batch := list(islice(prefixes, rows // size)):
            slab = np.empty((len(batch), size, n), dtype=dtype)
            slab[:, :, lead:] = tail
            slab[:, :, :lead] = np.array(batch, dtype=dtype)[:, None, :]
            yield slab.reshape(-1, n)
        return
    for prefix in prefixes:
        for lo in range(-radius, radius + 1, rows):
            hi = min(lo + rows, radius + 1)
            slab = np.empty((hi - lo, n), dtype=dtype)
            slab[:, :lead] = prefix
            slab[:, lead] = np.arange(lo, hi, dtype=dtype)
            yield slab


def _fold(np, ufunc, arr):
    """``ufunc`` reduced along axis 1 of a 2-D array, folded over its
    column views.

    The sweeps reduce a few columns per row, which numpy does far faster
    column by column than along the axis.  With no column, as for the
    coroot pairings and dual digits of data with no simple coroot such as
    gl:1, every row reads the ufunc's identity: True for all, False for
    any.
    """
    if not arr.shape[1]:
        return np.full(len(arr), ufunc.identity, dtype=arr.dtype)
    return reduce(ufunc, (arr[:, k] for k in range(arr.shape[1])))


def _phi_rows(np, vecs, blocks, nmat):
    """``functional.phi_ambient`` applied to every row of an array.

    The result has the dtype of ``vecs``, and ``nmat`` must share it:
    the caller's ``_lane`` bound covers every partial sum.  Each block
    minimum is taken over column views, without copying the block, into
    a column of one array, and phi is that array times the n-matrix.
    numpy runs the one product far faster than a broadcast sum per block,
    whose inner loop spans only phi's few columns.
    """
    lows = np.empty((len(vecs), len(blocks)), dtype=vecs.dtype)
    for j, members in enumerate(blocks):
        lows[:, j] = reduce(np.minimum, (vecs[:, a] for a in members))
    return lows @ nmat


def pair_witness_sweep(t, radius):
    """Certify witness additivity for all weight pairs in a box.

    For each pair (lam, lamp) the canonical witness permutation is built
    blockwise: within every block the first position of lam's minimum is
    transposed with the first position of lamp's minimum, also where lamp
    is minimal at both.  ``certify.find_witness_w`` keeps lam's position
    there instead; either rule puts both minima at one position, so both
    restore additivity.  The sweep then checks phi(w.lam + lamp) ==
    phi(lam) + phi(lamp) honestly on the constructed vector.  Returns
    (pairs checked, first failing pair or None); the count stops at the
    failure.

    Outer weights are walked one at a time and the inner box a slab at a
    time; when the box is one slab, its phi rows and block minimum
    positions are computed once and kept for every outer weight.  Every
    value is bounded by 2 * radius times the largest column sum of the
    n-matrix, which picks the lane width.
    """
    dtype = _lane(2 * radius * _nmat_colsum(t), "pair_witness_sweep")

    import numpy as np

    n, blocks = t.n, t.blocks
    nmat = np.array(t.n_matrix, dtype=dtype)

    def prepare(slab):
        # per inner point: phi, and each block's first minimum position
        argmins = [
            np.array(members)[slab[:, members].argmin(axis=1)]
            if len(members) > 1 else None
            for members in blocks
        ]
        return slab, _phi_rows(np, slab, blocks, nmat), argmins

    cached = None
    if (2 * radius + 1) ** n <= _slab_rows(np, n, dtype):
        cached = [prepare(slab) for slab in _box_slabs(np, n, radius, dtype)]

    checked = 0
    for lam in _box(n, radius):
        arg0 = [min(members, key=lam.__getitem__) for members in blocks]
        lamv = np.array(lam, dtype=dtype)
        phil = np.array(phi_ambient(lam, t), dtype=dtype)
        for slab, phip, argmins in cached or map(
            prepare, _box_slabs(np, n, radius, dtype)
        ):
            u = slab + lamv
            for a0, a1 in zip(arg0, argmins):
                if a1 is None:
                    continue
                hit = np.flatnonzero(a1 != a0)
                b = a1[hit]
                u[hit, a0] = lamv[b] + slab[hit, a0]
                u[hit, b] = lam[a0] + slab[hit, b]
            phiu = _phi_rows(np, u, blocks, nmat)
            bad = _fold(np, np.logical_or, phiu != phip + phil)
            if bad.any():
                f = int(bad.argmax())
                lamp = tuple(slab[f].tolist())
                return checked + f + 1, (lam, lamp)
            checked += len(slab)
    return checked, None


def poly_consistency_sweep(t, radius):
    """Compare the phi sign test against the shift-search oracle.

    The oracle decides membership in the polynomial cone without phi: a
    class is polynomial iff some kernel shift is coordinatewise
    non-negative.  It is ``certify._shift_exists`` with every coordinate
    its own block and the kernel basis vectors as columns, an exact
    search; like the certificate, it raises ``DomainError`` where a
    coefficient range stays unbounded.  A box of more than
    ``certify.CERTIFY_CLASS_CAP`` points raises ``CapExceeded`` before
    the first point.  Returns (weights checked, first disagreement or
    None) where a disagreement is (lam, phi verdict, oracle verdict).
    """
    from .certify import CERTIFY_CLASS_CAP, _shift_exists

    points = _box(t.n, radius)  # refuses a radius that is not an integer >= 0
    if power_exceeds(2 * radius + 1, t.n, CERTIFY_CLASS_CAP):
        raise CapExceeded(
            f"poly_consistency_sweep: the box of radius {int_text(radius)} "
            f"in dimension {t.n} has more than {CERTIFY_CLASS_CAP} points"
        )
    checked = 0
    for lam in points:
        ok_phi = min(phi_ambient(lam, t)) >= 0
        ok_oracle = _shift_exists(lam, t.kernel)
        checked += 1
        if ok_phi != ok_oracle:
            return checked, (lam, ok_phi, ok_oracle)
    return checked, None


def _flags_bound(t, prpow, vmax):
    """Largest intermediate of ``_predicates`` on entries up to ``vmax``."""
    shifted = vmax + prpow * max((abs(c) for d in t.dvecs for c in d), default=0)
    return max(
        prpow,
        shifted * _nmat_colsum(t),
        vmax * _max_abs_sum(t.coroots),
    )


def _lane_tables(np, t, prpow, dtype):
    """The n-matrix, the coroots and prpow times each d vector, as
    ``dtype`` arrays for ``_predicates``; ``_flags_bound`` covers them."""
    return (
        np.array(t.n_matrix, dtype=dtype),
        np.array(t.coroots, dtype=dtype).reshape(-1, t.n),
        prpow * np.array(t.dvecs, dtype=dtype).reshape(-1, t.n),
    )


def _predicates(np, t, vecs, prpow, tables):
    """phi of every row of ``vecs``, and the masks of the rows that are
    polynomial, restricted and in the literal digit set (polynomial,
    restricted, and every distinguished shift by prpow leaves the
    polynomial cone)."""
    nmat, coroots, steps = tables
    phi = _phi_rows(np, vecs, t.blocks, nmat)
    poly = _fold(np, np.minimum, phi) >= 0
    pairing = vecs @ coroots.T
    restricted = _fold(np, np.logical_and, (pairing >= 0) & (pairing <= prpow - 1))
    literal = poly & restricted
    for step in steps:
        shifted = _phi_rows(np, vecs - step, t.blocks, nmat)
        literal &= _fold(np, np.minimum, shifted) < 0
    return phi, poly, restricted, literal


def predicate_flags_box(t, prpow, radius):
    """Evaluate the membership predicates at every point of a box.

    Returns the flag words as one ``bytearray``, one byte per point in
    box order, so indexing or iterating it gives each word as an ``int``
    and it compares equal to the ``bytes`` of the same words: bit 0
    polynomial (phi sign test), bit 1 restricted, bit 2 phi within
    [0, prpow - 1], bit 3 the literal digit-set predicate (polynomial,
    restricted, and every distinguished shift by prpow leaves the
    polynomial cone).  A byte per word takes an eighth of the memory of
    a list of ints, and the array stays mutable, so a caller can edit a
    copy of the answer word by word.
    """
    dtype = _lane(_flags_bound(t, prpow, radius), "predicate_flags_box")

    import numpy as np

    tables = _lane_tables(np, t, prpow, dtype)
    words = bytearray()
    for slab in _box_slabs(np, t.n, radius, dtype):
        phi, poly, restricted, literal = _predicates(np, t, slab, prpow, tables)
        inrange = _fold(np, np.logical_and, (phi >= 0) & (phi <= prpow - 1))
        words += (
            poly.view(np.uint8)
            | restricted.view(np.uint8) << 1
            | inrange.view(np.uint8) << 2
            | literal.view(np.uint8) << 3
        ).tobytes()
    return words


def _level(shift):
    """The largest absolute coefficient of a shift: the least window a
    row needs for the shift to be tested on it."""
    return max(map(abs, shift), default=0)


def decompose_unique_sweep(t, prpow, radius, max_failures=5):
    """Check existence and uniqueness of the digit decomposition on a box.

    For each lam the basis coordinates are reduced to digits mod prpow,
    giving the restricted representative lam0'; candidates lam0' minus
    prpow times any distinguished combination within the derived window
    are tested against the literal digit-set predicate.  Success means
    exactly one candidate passes and it is the one the closed-form
    exponents select.  Weights whose forced dual digit cannot satisfy the
    restriction (even-pairing basis elements) count as failures with
    candidate count 0.

    The box is swept a slab at a time.  The shifts up to the largest
    window in the slab are taken level by level, a level being a shift's
    largest absolute coefficient: each level gathers the rows whose own
    window admits it once, and adds its hits to the slab's counts once.

    Returns (weights checked, tuple of at most max_failures (lam, count)).
    """
    n, ns = t.n, len(t.coroots)
    lam0p_max = (prpow - 1) * _max_abs_sum(zip(*t.basis))
    window_max = 1 + lam0p_max * _nmat_colsum(t) // prpow
    cand_max = lam0p_max + prpow * window_max * _max_abs_sum(zip(*t.dvecs))
    dtype = _lane(
        max(
            radius * max(_max_abs_sum(t.coef), 1),
            prpow * max(t.diag, default=1),
            _flags_bound(t, prpow, cand_max),
        ),
        "decompose_unique_sweep",
    )

    import numpy as np

    tables = _lane_tables(np, t, prpow, dtype)
    nmat, _, steps = tables
    coef = np.array(t.coef, dtype=dtype).reshape(-1, n)
    basis = np.array(t.basis, dtype=dtype).reshape(-1, n)
    diag = np.array(t.diag, dtype=dtype)

    checked = 0
    failures = []
    for slab in _box_slabs(np, n, radius, dtype):
        checked += len(slab)
        digits = (slab @ coef.T) % prpow
        feasible = _fold(np, np.logical_and, diag * digits[:, :ns] <= prpow - 1)
        lam0p = digits @ basis
        del digits
        phi0 = _phi_rows(np, lam0p, t.blocks, nmat)
        window = 1 + _fold(np, np.maximum, np.abs(phi0)) // prpow
        astar = phi0 // prpow
        del phi0
        count = np.zeros(len(slab), dtype=np.int64)
        star_hit = np.zeros(len(slab), dtype=bool)
        reach = int(window[feasible].max()) if feasible.any() else -1
        shifts = product(range(-reach, reach + 1), repeat=len(steps))
        for level, shell in groupby(sorted(shifts, key=_level), key=_level):
            rows = np.flatnonzero(feasible & (window >= level))
            base, star = lam0p[rows], astar[rows]
            hits = np.zeros(len(rows), dtype=np.int64)
            on_star = np.zeros(len(rows), dtype=bool)
            for shift in shell:
                coeffs = np.array(shift, dtype=dtype)
                hit = _predicates(np, t, base - coeffs @ steps, prpow, tables)[3]
                hits += hit
                on_star |= hit & _fold(np, np.logical_and, star == coeffs)
            count[rows] += hits
            star_hit[rows] |= on_star
        room = max_failures - len(failures)
        if room > 0:
            bad = np.flatnonzero(~feasible | (count != 1) | ~star_hit)[:room]
            failures.extend(
                zip(map(tuple, slab[bad].tolist()), count[bad].tolist())
            )
    return checked, tuple(failures)
