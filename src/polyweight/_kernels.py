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
numpy int64 arrays; ``poly_consistency_sweep`` loops over the box point
by point.
Before sweeping, the vectorised kernels bound every intermediate from
the radius, the modulus and the table entries, and raise DomainError
when the bound does not fit in 64 bits, so no value wraps.  numpy is imported
inside those functions only, so importing the package does not load it.

Every kernel reads a ``classify.Tables`` bundle of the datum's own rows
(``ClassificationContext.tables()``) by attribute, and evaluates the
scalar functional with ``functional.phi_ambient`` on it.  No package module
imports this one: a caller of a sweep imports it.
"""

from itertools import product

from .errors import DomainError
from .functional import _box, phi_ambient

_INT64_MAX = 2**63 - 1

# Most box points a vectorised sweep holds at once.
_SLAB_ROWS = 1 << 16


def _max_abs_sum(vectors):
    """Largest sum of absolute entries over the given vectors."""
    return max((sum(abs(c) for c in vec) for vec in vectors), default=0)


def _nmat_colsum(t):
    """Largest absolute column sum of the n-matrix (at least 1): the
    factor by which phi can exceed the largest entry of its argument."""
    return max(_max_abs_sum(zip(*t.n_matrix)), 1)


def _require_int64(bound, kernel):
    if bound > _INT64_MAX:
        raise DomainError(
            f"{kernel}: intermediate values may reach {bound}, beyond the "
            "64-bit range of the vectorised sweep"
        )


def _box_slabs(np, n, radius):
    """The box [-radius, radius]^n in box order, as int64 slabs.

    The trailing coordinates form a fixed grid of at most _SLAB_ROWS
    points and the leading ones are walked in Python; when a single
    coordinate is wider than a slab, the last one is cut into runs.
    """
    width = 2 * radius + 1
    k, size = 0, 1
    while k < n and size * width <= _SLAB_ROWS:
        k += 1
        size *= width
    lead = n - max(k, 1)
    if k:
        tail = np.indices((width,) * k, dtype=np.int64).reshape(k, -1).T - radius
    for prefix in _box(lead, radius):
        if k:
            slab = np.empty((size, n), dtype=np.int64)
            slab[:, lead:] = tail
            slab[:, :lead] = prefix
            yield slab
        else:
            for lo in range(-radius, radius + 1, _SLAB_ROWS):
                hi = min(lo + _SLAB_ROWS, radius + 1)
                slab = np.empty((hi - lo, n), dtype=np.int64)
                slab[:, :lead] = prefix
                slab[:, lead] = np.arange(lo, hi, dtype=np.int64)
                yield slab


def _phi_rows(np, vecs, blocks, nmat):
    """``functional.phi_ambient`` applied to every row of an int64 array."""
    out = np.zeros((len(vecs), nmat.shape[1]), dtype=np.int64)
    for members, row in zip(blocks, nmat):
        if row.any():
            out += vecs[:, members].min(axis=1)[:, None] * row
    return out


def pair_witness_sweep(t, radius):
    """Certify witness additivity for all weight pairs in a box.

    For each pair (lam, lamp) the canonical witness permutation is built
    blockwise: within every block the position of lam's minimum is
    transposed onto a position where lamp attains its block minimum.  The
    sweep then checks phi(w.lam + lamp) == phi(lam) + phi(lamp) honestly
    on the constructed vector.  Returns (pairs checked, first failing
    pair or None); the count stops at the failure.

    Outer weights are walked one at a time and the inner box a slab at a
    time; every value is bounded by 2 * radius times the largest column
    sum of the n-matrix.
    """
    _require_int64(2 * radius * _nmat_colsum(t), "pair_witness_sweep")

    import numpy as np

    n, blocks = t.n, t.blocks
    nmat = np.array(t.n_matrix, dtype=np.int64)

    def prepare(slab):
        # per inner point: phi, and each block's first minimum position
        argmins = [
            np.array(members)[slab[:, members].argmin(axis=1)]
            if len(members) > 1 else None
            for members in blocks
        ]
        return slab, _phi_rows(np, slab, blocks, nmat), argmins

    cached = None
    if (2 * radius + 1) ** n <= _SLAB_ROWS:
        cached = [prepare(slab) for slab in _box_slabs(np, n, radius)]

    checked = 0
    for lam in _box(n, radius):
        arg0 = [min(members, key=lam.__getitem__) for members in blocks]
        lamv = np.array(lam, dtype=np.int64)
        phil = np.array(phi_ambient(lam, t), dtype=np.int64)
        for slab, phip, argmins in cached or map(
            prepare, _box_slabs(np, n, radius)
        ):
            u = slab + lamv
            for a0, a1 in zip(arg0, argmins):
                if a1 is None:
                    continue
                hit = np.flatnonzero(a1 != a0)
                b = a1[hit]
                u[hit, a0] = lamv[b] + slab[hit, a0]
                u[hit, b] = lam[a0] + slab[hit, b]
            bad = (_phi_rows(np, u, blocks, nmat) != phip + phil).any(axis=1)
            if bad.any():
                f = int(bad.argmax())
                lamp = tuple(int(v) for v in slab[f])
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
    coefficient range stays unbounded.  Returns (weights checked, first
    disagreement or None) where a disagreement is (lam, phi verdict,
    oracle verdict).
    """
    from .certify import _shift_exists

    checked = 0
    for lam in _box(t.n, radius):
        ok_phi = min(phi_ambient(lam, t)) >= 0
        ok_oracle = _shift_exists(lam, t.kernel)
        checked += 1
        if ok_phi != ok_oracle:
            return checked, (lam, ok_phi, ok_oracle)
    return checked, None


def _flags_bound(t, prpow, vmax):
    """Largest intermediate of ``_flag_words`` on entries up to ``vmax``."""
    shifted = vmax + prpow * max((abs(c) for d in t.dvecs for c in d), default=0)
    return max(
        prpow,
        shifted * _nmat_colsum(t),
        vmax * _max_abs_sum(t.coroots),
    )


def _flag_words(np, t, vecs, prpow):
    """The ``predicate_flags_box`` word of every row of an int64 array."""
    nmat = np.array(t.n_matrix, dtype=np.int64)
    coroots = np.array(t.coroots, dtype=np.int64).reshape(-1, t.n)
    phi = _phi_rows(np, vecs, t.blocks, nmat)
    poly = phi.min(axis=1) >= 0
    pairing = vecs @ coroots.T
    restricted = ((pairing >= 0) & (pairing <= prpow - 1)).all(axis=1)
    inrange = ((phi >= 0) & (phi <= prpow - 1)).all(axis=1)
    literal = poly & restricted
    for d in t.dvecs:
        shifted = vecs - prpow * np.array(d, dtype=np.int64)
        literal &= _phi_rows(np, shifted, t.blocks, nmat).min(axis=1) < 0
    return (
        poly.astype(np.int64)
        | restricted.astype(np.int64) << 1
        | inrange.astype(np.int64) << 2
        | literal.astype(np.int64) << 3
    )


def predicate_flags_box(t, prpow, radius):
    """Evaluate the membership predicates at every point of a box.

    Returns one flag word per point, in box order: bit 0 polynomial
    (phi sign test), bit 1 restricted, bit 2 phi within [0, prpow - 1],
    bit 3 the literal digit-set predicate (polynomial, restricted, and
    every distinguished shift by prpow leaves the polynomial cone).
    """
    _require_int64(_flags_bound(t, prpow, radius), "predicate_flags_box")

    import numpy as np

    out = []
    for slab in _box_slabs(np, t.n, radius):
        out.extend(_flag_words(np, t, slab, prpow).tolist())
    return out


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

    The box is swept a slab at a time; for each shift up to the largest
    window in the slab, only the rows whose own window admits it are
    tested.

    Returns (weights checked, tuple of at most max_failures (lam, count)).
    """
    n, l, ns = t.n, len(t.dvecs), len(t.coroots)
    lam0p_max = (prpow - 1) * _max_abs_sum(zip(*t.basis))
    window_max = 1 + lam0p_max * _nmat_colsum(t) // prpow
    cand_max = lam0p_max + prpow * window_max * _max_abs_sum(zip(*t.dvecs))
    _require_int64(
        max(
            radius * max(_max_abs_sum(t.coef), 1),
            prpow * max(t.diag, default=1),
            _flags_bound(t, prpow, cand_max),
        ),
        "decompose_unique_sweep",
    )

    import numpy as np

    nmat = np.array(t.n_matrix, dtype=np.int64)
    coef = np.array(t.coef, dtype=np.int64).reshape(-1, n)
    basis = np.array(t.basis, dtype=np.int64).reshape(-1, n)
    diag = np.array(t.diag, dtype=np.int64)

    checked = 0
    failures = []
    for slab in _box_slabs(np, n, radius):
        checked += len(slab)
        digits = (slab @ coef.T) % prpow
        feasible = (diag * digits[:, :ns] <= prpow - 1).all(axis=1)
        lam0p = digits @ basis
        phi0 = _phi_rows(np, lam0p, t.blocks, nmat)
        window = 1 + np.abs(phi0).max(axis=1) // prpow
        astar = phi0 // prpow
        count = np.zeros(len(slab), dtype=np.int64)
        star_hit = np.zeros(len(slab), dtype=bool)
        reach = int(window[feasible].max()) if feasible.any() else -1
        for shift in product(range(-reach, reach + 1), repeat=l):
            rows = np.flatnonzero(
                feasible & (window >= max(map(abs, shift), default=0))
            )
            offset = [
                prpow * sum(c * d[a] for c, d in zip(shift, t.dvecs))
                for a in range(n)
            ]
            cand = lam0p[rows] - np.array(offset, dtype=np.int64)
            hit = _flag_words(np, t, cand, prpow) >> 3 == 1
            count[rows] += hit
            star_hit[rows] |= hit & (astar[rows] == shift).all(axis=1)
        room = max_failures - len(failures)
        if room > 0:
            bad = np.flatnonzero(~feasible | (count != 1) | ~star_hit)
            failures.extend(
                (tuple(int(v) for v in slab[f]), int(count[f]))
                for f in bad[:room]
            )
    return checked, tuple(failures)
