"""Plain-loop reference for the vectorised sweeps.

These are the element-at-a-time loops that ``polyweight._kernels``
used before its pair, predicate-flag and decomposition sweeps were
vectorised with numpy.  They use exact Python integers and the fixed box
order (ascending lexicographic, last coordinate fastest), and the tests
require the vectorised sweeps to return identical values.
"""


def _bump(vec, radius):
    """Advance the box odometer in place; False when exhausted."""
    i = len(vec) - 1
    while i >= 0:
        if vec[i] < radius:
            vec[i] += 1
            return True
        vec[i] = -radius
        i -= 1
    return False


def _phi_of(vec, t):
    """Blockwise minima of ``vec`` expanded through the n-matrix."""
    out = [0] * len(t.dvecs)
    for members, row in zip(t.blocks, t.n_matrix):
        m = vec[members[0]]
        for a in members[1:]:
            if vec[a] < m:
                m = vec[a]
        for j, c in enumerate(row):
            if c:
                out[j] += m * c
    return out


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
    """
    n, l = t.n, len(t.dvecs)
    lam = [-radius] * n
    arg0 = [0] * len(t.blocks)
    checked = 0
    while True:
        phil = _phi_of(lam, t)
        for i, members in enumerate(t.blocks):
            a0 = members[0]
            m0 = lam[a0]
            for a in members[1:]:
                if lam[a] < m0:
                    m0 = lam[a]
                    a0 = a
            arg0[i] = a0
        lamp = [-radius] * n
        while True:
            u = [lam[a] + lamp[a] for a in range(n)]
            for i, members in enumerate(t.blocks):
                a1 = members[0]
                m1 = lamp[a1]
                for a in members[1:]:
                    if lamp[a] < m1:
                        m1 = lamp[a]
                        a1 = a
                a0 = arg0[i]
                if a0 != a1:
                    u[a0] = lam[a1] + lamp[a0]
                    u[a1] = lam[a0] + lamp[a1]
            phiu = _phi_of(u, t)
            phip = _phi_of(lamp, t)
            checked += 1
            for j in range(l):
                if phiu[j] != phil[j] + phip[j]:
                    return checked, (tuple(lam), tuple(lamp))
            if not _bump(lamp, radius):
                break
        if not _bump(lam, radius):
            break
    return checked, None


def _flags_for(lam, t, prpow):
    n = t.n
    phi = _phi_of(lam, t)
    poly = 1 if min(phi) >= 0 else 0
    restricted = 1
    for cov in t.coroots:
        val = 0
        for a in range(n):
            if cov[a]:
                val += cov[a] * lam[a]
        if val < 0 or val > prpow - 1:
            restricted = 0
            break
    inrange = 1
    for v in phi:
        if v < 0 or v > prpow - 1:
            inrange = 0
            break
    literal = poly and restricted
    if literal:
        for d in t.dvecs:
            shifted = [lam[a] - prpow * d[a] for a in range(n)]
            if min(_phi_of(shifted, t)) >= 0:
                literal = 0
                break
    return poly | (restricted << 1) | (inrange << 2) | ((1 if literal else 0) << 3)


def predicate_flags_box(t, prpow, radius):
    """Evaluate the membership predicates at every point of a box.

    Returns one flag word per point, in box order: bit 0 polynomial
    (phi sign test), bit 1 restricted, bit 2 phi within [0, prpow - 1],
    bit 3 the literal digit-set predicate (polynomial, restricted, and
    every distinguished shift by prpow leaves the polynomial cone).
    """
    lam = [-radius] * t.n
    out = []
    while True:
        out.append(_flags_for(lam, t, prpow))
        if not _bump(lam, radius):
            break
    return out


def _in_pr_literal(vec, t, prpow):
    return _flags_for(vec, t, prpow) & 8 != 0


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

    Returns (weights checked, tuple of at most max_failures (lam, count)).
    """
    n, l, ns, rank = t.n, len(t.dvecs), len(t.coroots), len(t.coef)
    lam = [-radius] * n
    checked = 0
    failures = []
    while True:
        checked += 1
        coords = [0] * rank
        for k, row in enumerate(t.coef):
            v = 0
            for a in range(n):
                if row[a]:
                    v += row[a] * lam[a]
            coords[k] = v
        digits = [0] * rank
        feasible = True
        for k in range(ns):
            dig = coords[k] % prpow
            if t.diag[k] * dig > prpow - 1:
                feasible = False
                break
            digits[k] = dig
        if not feasible:
            if len(failures) < max_failures:
                failures.append((tuple(lam), 0))
            if not _bump(lam, radius):
                break
            continue
        for k in range(ns, rank):
            digits[k] = coords[k] % prpow
        lam0p = [0] * n
        for dig, vec in zip(digits, t.basis):
            if dig:
                for a in range(n):
                    lam0p[a] += dig * vec[a]
        phi0 = _phi_of(lam0p, t)
        window = 1 + max(abs(v) for v in phi0) // prpow
        astar = [phi0[j] // prpow for j in range(l)]
        count = 0
        star_hit = False
        shift = [-window] * l
        cand = [0] * n
        while True:
            for a in range(n):
                v = lam0p[a]
                for cj, d in zip(shift, t.dvecs):
                    if cj:
                        v -= prpow * cj * d[a]
                cand[a] = v
            if _in_pr_literal(cand, t, prpow):
                count += 1
                if shift == astar:
                    star_hit = True
            if not _bump(shift, window):
                break
        if count != 1 or not star_hit:
            if len(failures) < max_failures:
                failures.append((tuple(lam), count))
        if not _bump(lam, radius):
            break
    return checked, tuple(failures)
