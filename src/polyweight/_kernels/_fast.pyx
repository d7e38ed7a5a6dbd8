# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled twins of the box-sweep kernels.

Transliteration of ``pure.py`` with the table bundle copied into C
arrays; identical results and iteration order (ascending lexicographic
over closed boxes, last coordinate fastest).  Division and modulo follow
Python floor semantics via the two inline helpers, since cdivision
truncates toward zero.
"""

from libc.stdlib cimport free, malloc


cdef inline long long _fmod(long long a, long long m) nogil:
    cdef long long v = a % m
    if v < 0:
        v += m
    return v


cdef inline long long _fdiv(long long a, long long m) nogil:
    cdef long long q = a // m
    if a % m != 0 and ((a < 0) != (m < 0)):
        q -= 1
    return q


cdef struct TBL:
    long long n, s, l, ns, rank, krank
    long long *boff
    long long *bmem
    long long *nmat
    long long *coroots
    long long *dvecs
    long long *coef
    long long *basis
    long long *diag
    long long *kernel


cdef long long *_copy(seq) except NULL:
    cdef long long size = len(seq)
    cdef long long *buf = <long long *> malloc((size if size else 1) * sizeof(long long))
    if buf == NULL:
        raise MemoryError()
    cdef long long i
    for i in range(size):
        buf[i] = seq[i]
    return buf


cdef int _tbl_init(TBL *tb, t) except -1:
    tb.n = t.n
    tb.s = t.s
    tb.l = t.l
    tb.ns = t.ns
    tb.rank = t.rank
    tb.krank = t.krank
    tb.boff = tb.bmem = tb.nmat = tb.coroots = NULL
    tb.dvecs = tb.coef = tb.basis = tb.diag = tb.kernel = NULL
    tb.boff = _copy(t.boff)
    tb.bmem = _copy(t.bmem)
    tb.nmat = _copy(t.nmat)
    tb.coroots = _copy(t.coroots)
    tb.dvecs = _copy(t.dvecs)
    tb.coef = _copy(t.coef)
    tb.basis = _copy(t.basis)
    tb.diag = _copy(t.diag)
    tb.kernel = _copy(t.kernel)
    return 0


cdef void _tbl_free(TBL *tb):
    free(tb.boff)
    free(tb.bmem)
    free(tb.nmat)
    free(tb.coroots)
    free(tb.dvecs)
    free(tb.coef)
    free(tb.basis)
    free(tb.diag)
    free(tb.kernel)


cdef inline bint _bump(long long *vec, long long n, long long radius) nogil:
    cdef long long i = n - 1
    while i >= 0:
        if vec[i] < radius:
            vec[i] += 1
            return True
        vec[i] = -radius
        i -= 1
    return False


cdef inline void _phi_of(long long *vec, TBL *tb, long long *out) nogil:
    cdef long long i, j, k, lo, hi, m, v, base, c
    for j in range(tb.l):
        out[j] = 0
    for i in range(tb.s):
        lo = tb.boff[i]
        hi = tb.boff[i + 1]
        m = vec[tb.bmem[lo]]
        for k in range(lo + 1, hi):
            v = vec[tb.bmem[k]]
            if v < m:
                m = v
        base = i * tb.l
        for j in range(tb.l):
            c = tb.nmat[base + j]
            if c:
                out[j] += m * c


def pair_witness_sweep(t, radius, start=0, stop=None):
    """Certify witness additivity for all weight pairs in a box.

    Same contract as the pure twin: returns (pairs checked, first
    failing (lam, lamp) or None), outer index range [start, stop)
    clipped to the box.
    """
    cdef TBL tb
    _tbl_init(&tb, t)
    cdef long long n = tb.n, s = tb.s, l = tb.l
    cdef long long rad = radius
    cdef long long width = 2 * rad + 1
    total = width ** int(n)
    stop = total if stop is None else min(stop, total)
    cdef long long c_start = start, c_stop = stop
    if c_start >= c_stop:
        _tbl_free(&tb)
        return 0, None
    cdef long long *lam = <long long *> malloc(n * sizeof(long long))
    cdef long long *lamp = <long long *> malloc(n * sizeof(long long))
    cdef long long *u = <long long *> malloc(n * sizeof(long long))
    cdef long long *arg0 = <long long *> malloc((s if s else 1) * sizeof(long long))
    cdef long long *phil = <long long *> malloc((l if l else 1) * sizeof(long long))
    cdef long long *phip = <long long *> malloc((l if l else 1) * sizeof(long long))
    cdef long long *phiu = <long long *> malloc((l if l else 1) * sizeof(long long))
    if (lam == NULL or lamp == NULL or u == NULL or arg0 == NULL
            or phil == NULL or phip == NULL or phiu == NULL):
        free(lam); free(lamp); free(u); free(arg0)
        free(phil); free(phip); free(phiu)
        _tbl_free(&tb)
        raise MemoryError()
    cdef long long idx = c_start
    cdef long long i, k, a, a0, a1, m0, m1, j, outer
    cdef long long checked = 0
    cdef bint failed = False
    for i in range(n - 1, -1, -1):
        lam[i] = idx % width - rad
        idx //= width
    with nogil:
        for outer in range(c_start, c_stop):
            _phi_of(lam, &tb, phil)
            for i in range(s):
                a0 = tb.bmem[tb.boff[i]]
                m0 = lam[a0]
                for k in range(tb.boff[i] + 1, tb.boff[i + 1]):
                    a = tb.bmem[k]
                    if lam[a] < m0:
                        m0 = lam[a]
                        a0 = a
                arg0[i] = a0
            for a in range(n):
                lamp[a] = -rad
            while True:
                for a in range(n):
                    u[a] = lam[a] + lamp[a]
                for i in range(s):
                    a1 = tb.bmem[tb.boff[i]]
                    m1 = lamp[a1]
                    for k in range(tb.boff[i] + 1, tb.boff[i + 1]):
                        a = tb.bmem[k]
                        if lamp[a] < m1:
                            m1 = lamp[a]
                            a1 = a
                    a0 = arg0[i]
                    if a0 != a1:
                        u[a0] = lam[a1] + lamp[a0]
                        u[a1] = lam[a0] + lamp[a1]
                _phi_of(u, &tb, phiu)
                _phi_of(lamp, &tb, phip)
                checked += 1
                for j in range(l):
                    if phiu[j] != phil[j] + phip[j]:
                        failed = True
                        break
                if failed:
                    break
                if not _bump(lamp, n, rad):
                    break
            if failed:
                break
            if not _bump(lam, n, rad):
                break
    if failed:
        result = checked, (
            tuple(lam[a] for a in range(n)),
            tuple(lamp[a] for a in range(n)),
        )
    else:
        result = checked, None
    free(lam); free(lamp); free(u); free(arg0)
    free(phil); free(phip); free(phiu)
    _tbl_free(&tb)
    return result


def poly_consistency_sweep(t, radius):
    """Compare the phi sign test against the kernel-shift search oracle."""
    cdef TBL tb
    _tbl_init(&tb, t)
    cdef long long n = tb.n, krank = tb.krank
    cdef long long rad = radius
    cdef long long *lam = <long long *> malloc(n * sizeof(long long))
    cdef long long *phi = <long long *> malloc((tb.l if tb.l else 1) * sizeof(long long))
    cdef long long *coeff = <long long *> malloc((krank if krank else 1) * sizeof(long long))
    if lam == NULL or phi == NULL or coeff == NULL:
        free(lam); free(phi); free(coeff)
        _tbl_free(&tb)
        raise MemoryError()
    cdef long long a, k, j, v, window, mn, mx
    cdef long long checked = 0
    cdef bint ok_phi, ok_oracle, good, disagreed = False
    for a in range(n):
        lam[a] = -rad
    with nogil:
        while True:
            _phi_of(lam, &tb, phi)
            mn = phi[0]
            for j in range(1, tb.l):
                if phi[j] < mn:
                    mn = phi[j]
            ok_phi = mn >= 0
            if krank == 0:
                mn = lam[0]
                for a in range(1, n):
                    if lam[a] < mn:
                        mn = lam[a]
                ok_oracle = mn >= 0
            else:
                mn = lam[0]
                mx = lam[0]
                for a in range(1, n):
                    if lam[a] < mn:
                        mn = lam[a]
                    if lam[a] > mx:
                        mx = lam[a]
                window = (mx - mn) + rad
                for k in range(krank):
                    coeff[k] = -window
                ok_oracle = False
                while True:
                    good = True
                    for a in range(n):
                        v = lam[a]
                        for k in range(krank):
                            v += coeff[k] * tb.kernel[k * n + a]
                        if v < 0:
                            good = False
                            break
                    if good:
                        ok_oracle = True
                        break
                    if not _bump(coeff, krank, window):
                        break
            checked += 1
            if ok_phi != ok_oracle:
                disagreed = True
                break
            if not _bump(lam, n, rad):
                break
    if disagreed:
        result = checked, (
            tuple(lam[a] for a in range(n)), bool(ok_phi), bool(ok_oracle)
        )
    else:
        result = checked, None
    free(lam); free(phi); free(coeff)
    _tbl_free(&tb)
    return result


cdef long long _flags_for(long long *lam, TBL *tb, long long prpow,
                          long long *phi, long long *shifted,
                          long long *sphi) nogil:
    cdef long long n = tb.n, l = tb.l
    cdef long long poly = 1, restricted = 1, inrange = 1, literal
    cdef long long a, c, j, k, val, srow, drow, mn
    _phi_of(lam, tb, phi)
    mn = phi[0]
    for j in range(1, l):
        if phi[j] < mn:
            mn = phi[j]
    if mn < 0:
        poly = 0
    for k in range(tb.ns):
        srow = k * n
        val = 0
        for a in range(n):
            c = tb.coroots[srow + a]
            if c:
                val += c * lam[a]
        if val < 0 or val > prpow - 1:
            restricted = 0
            break
    for j in range(l):
        if phi[j] < 0 or phi[j] > prpow - 1:
            inrange = 0
            break
    literal = poly and restricted
    if literal:
        for j in range(l):
            drow = j * n
            for a in range(n):
                shifted[a] = lam[a] - prpow * tb.dvecs[drow + a]
            _phi_of(shifted, tb, sphi)
            mn = sphi[0]
            for k in range(1, l):
                if sphi[k] < mn:
                    mn = sphi[k]
            if mn >= 0:
                literal = 0
                break
    return poly | (restricted << 1) | (inrange << 2) | (literal << 3)


def predicate_flags_box(t, prpow, radius):
    """One membership flag word per box point, in box order."""
    cdef TBL tb
    _tbl_init(&tb, t)
    cdef long long n = tb.n, l = tb.l
    cdef long long rad = radius, step = prpow
    cdef long long *lam = <long long *> malloc(n * sizeof(long long))
    cdef long long *phi = <long long *> malloc((l if l else 1) * sizeof(long long))
    cdef long long *shifted = <long long *> malloc(n * sizeof(long long))
    cdef long long *sphi = <long long *> malloc((l if l else 1) * sizeof(long long))
    if lam == NULL or phi == NULL or shifted == NULL or sphi == NULL:
        free(lam); free(phi); free(shifted); free(sphi)
        _tbl_free(&tb)
        raise MemoryError()
    cdef long long a
    for a in range(n):
        lam[a] = -rad
    out = []
    while True:
        out.append(_flags_for(lam, &tb, step, phi, shifted, sphi))
        if not _bump(lam, n, rad):
            break
    free(lam); free(phi); free(shifted); free(sphi)
    _tbl_free(&tb)
    return out


def decompose_unique_sweep(t, prpow, radius, max_failures=5):
    """Existence and uniqueness of the digit decomposition on a box.

    Same contract as the pure twin: (weights checked, tuple of at most
    max_failures (lam, candidate count) pairs).
    """
    cdef TBL tb
    _tbl_init(&tb, t)
    cdef long long n = tb.n, l = tb.l, ns = tb.ns, rank = tb.rank
    cdef long long rad = radius, step = prpow, cap = max_failures
    cdef long long *lam = <long long *> malloc(n * sizeof(long long))
    cdef long long *coords = <long long *> malloc(rank * sizeof(long long))
    cdef long long *digits = <long long *> malloc(rank * sizeof(long long))
    cdef long long *lam0p = <long long *> malloc(n * sizeof(long long))
    cdef long long *phi0 = <long long *> malloc(l * sizeof(long long))
    cdef long long *astar = <long long *> malloc(l * sizeof(long long))
    cdef long long *shift = <long long *> malloc(l * sizeof(long long))
    cdef long long *cand = <long long *> malloc(n * sizeof(long long))
    cdef long long *phi = <long long *> malloc(l * sizeof(long long))
    cdef long long *shifted = <long long *> malloc(n * sizeof(long long))
    cdef long long *sphi = <long long *> malloc(l * sizeof(long long))
    if (lam == NULL or coords == NULL or digits == NULL or lam0p == NULL
            or phi0 == NULL or astar == NULL or shift == NULL or cand == NULL
            or phi == NULL or shifted == NULL or sphi == NULL):
        free(lam); free(coords); free(digits); free(lam0p); free(phi0)
        free(astar); free(shift); free(cand); free(phi); free(shifted)
        free(sphi)
        _tbl_free(&tb)
        raise MemoryError()
    cdef long long a, c, j, k, v, dig, row, window, count, w_abs
    cdef long long checked = 0
    cdef bint feasible, star_hit, at_star, fail_now
    failures = []
    for a in range(n):
        lam[a] = -rad
    while True:
        checked += 1
        fail_now = False
        count = 0
        for k in range(rank):
            row = k * n
            v = 0
            for a in range(n):
                c = tb.coef[row + a]
                if c:
                    v += c * lam[a]
            coords[k] = v
        feasible = True
        for k in range(ns):
            dig = _fmod(coords[k], step)
            if tb.diag[k] * dig > step - 1:
                feasible = False
                break
            digits[k] = dig
        if not feasible:
            fail_now = True
        else:
            for k in range(ns, rank):
                digits[k] = _fmod(coords[k], step)
            for a in range(n):
                lam0p[a] = 0
            for k in range(rank):
                dig = digits[k]
                if dig:
                    row = k * n
                    for a in range(n):
                        lam0p[a] += dig * tb.basis[row + a]
            _phi_of(lam0p, &tb, phi0)
            window = 0
            for j in range(l):
                w_abs = phi0[j] if phi0[j] >= 0 else -phi0[j]
                if w_abs > window:
                    window = w_abs
            window = 1 + _fdiv(window, step)
            for j in range(l):
                astar[j] = _fdiv(phi0[j], step)
                shift[j] = -window
            star_hit = False
            while True:
                for a in range(n):
                    v = lam0p[a]
                    for j in range(l):
                        if shift[j]:
                            v -= step * shift[j] * tb.dvecs[j * n + a]
                    cand[a] = v
                if _flags_for(cand, &tb, step, phi, shifted, sphi) & 8:
                    count += 1
                    at_star = True
                    for j in range(l):
                        if shift[j] != astar[j]:
                            at_star = False
                            break
                    if at_star:
                        star_hit = True
                if not _bump(shift, l, window):
                    break
            if count != 1 or not star_hit:
                fail_now = True
        if fail_now and len(failures) < cap:
            failures.append((tuple(lam[a] for a in range(n)), int(count)))
        if not _bump(lam, n, rad):
            break
    result = checked, tuple(failures)
    free(lam); free(coords); free(digits); free(lam0p); free(phi0)
    free(astar); free(shift); free(cand); free(phi); free(shifted)
    free(sphi)
    _tbl_free(&tb)
    return result
