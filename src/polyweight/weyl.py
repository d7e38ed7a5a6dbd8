"""Weyl elements as index permutations, and the hypotheses over them.

Weyl group elements are index permutations p, tuples with p[i] the
image of i, acting on weights by ``act(p, w)[p[i]] == w[i]``.  A listed
group is a ``PermutationTable``: one flat array of its elements' entries,
a byte each up to 256 points, that yields each element as such a tuple.

``check_hypotheses`` decides the construction hypotheses (a)-(d) of a
group datum; (c) quantifies over the Weyl group the datum's generators
generate; each rule is stated here once.  Building a datum does not
load this module: it loads the first time a datum is validated or its
Weyl group is asked for.
"""

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import CapExceeded, DomainError
from .lattice import _echelonize, check_dim

# Most elements ``generate_group`` lists, read at each call.
WEYL_CAP = 100_000

# Most permutation entries ``stabilizer_chain`` composes, into orbit
# representatives and Schreier generators and while sifting them, before
# it refuses; read at each call.  The built-in data compose at most 2.81 M
# before ``WEYL_CAP`` refuses them, on gsp:2048 and go:2047.
CHAIN_WORK_CAP = 3_000_000


def identity_perm(n):
    return tuple(range(n))


def is_perm(p):
    return sorted(p) == list(range(len(p)))


def is_even_perm(p):
    """Whether p is a product of an even number of transpositions.

    A permutation of n points with c cycles (fixed points included) is a
    product of n - c transpositions.
    """
    seen = [False] * len(p)
    cycles = 0
    for start in range(len(p)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = p[i]
    return (len(p) - cycles) % 2 == 0


def transposition(n, i, j):
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def compose(p, q):
    """The permutation applying q first, then p."""
    return tuple(map(p.__getitem__, q))


def inverse(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def act(p, weight):
    """Permutation action on weights: position p[i] receives weight[i]."""
    check_dim(weight, len(p))
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = weight[i]
    return tuple(out)


def act_covector(p, covector):
    """Adjoint action so that pair(act(p, w), c) == pair(w, act_covector(p, c))."""
    check_dim(covector, len(p))
    return tuple(covector[p[i]] for i in range(len(p)))


def generate_group(generators):
    """The group the permutations generate, as a sorted ``PermutationTable``.

    ``CapExceeded`` is raised as soon as the order of the
    ``stabilizer_chain`` passes ``WEYL_CAP``, before any element is
    listed.

    Every g in G is one product u_0 u_1 ... u_(n-1) of a representative
    from each level.  The factors after u_k fix 0, ..., k, so g agrees on
    0, ..., k - 1 with the prefix u_0 ... u_(k-1), and g[k] is
    prefix[u_k[k]], distinct for distinct u_k.  So a depth-first walk that
    takes each level's representatives in order of prefix[u_k[k]] lists G
    in lexicographic, that is sorted, order.  Only the levels with more
    than one representative are walked, each at least doubling the order,
    so the walk is at most log2(WEYL_CAP) deep.
    """
    from array import array

    chain = stabilizer_chain(generators, cap=WEYL_CAP)
    n = len(chain)
    table = array("B" if n <= 256 else "H" if n <= 65536 else "L")
    _fill(table, identity_perm(n), [orbit for orbit in chain if len(orbit) > 1])
    return PermutationTable(table, n)


class PermutationTable(Sequence):
    """A read-only sequence of permutations of ``degree`` points, stored as
    one flat array of their entries and yielded as tuples; a slice is a
    tuple of them.  The table of degree 0 holds the empty permutation."""

    def __init__(self, table, degree):
        self._table, self.degree = table, degree
        self._len = len(table) // degree if degree else 1

    def __len__(self):
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(self._len)[index]))
        start = range(self._len)[index] * self.degree
        return tuple(self._table[start:start + self.degree])

    def __iter__(self):
        if not self.degree:
            return iter([()])
        return zip(*[iter(self._table)] * self.degree)


def stabilizer_chain(generators, cap=None):
    """The stabilizer chain of the group G the permutations generate.

    A deterministic Schreier-Sims algorithm (Seress, *Permutation Group
    Algorithms*, 2003, Ch. 4) builds the chain on the base 0, ..., n - 1.
    G_k is the pointwise stabilizer of 0, ..., k - 1 in G, and level k,
    the k-th dict of the returned list, maps each point b of the orbit of
    k under G_k to one element of G_k taking k to b.  Levels complete
    from the last up; a completed level k makes levels k, ..., n - 1 a
    chain of the subgroup of G that the strong generators fixing 0, ...,
    k - 1 generate, and its order is the product of their orbit lengths.
    With a ``cap``, ``CapExceeded`` is raised as soon as that order passes
    it.  Without one the chain holds at most n (n + 1) / 2
    representatives, whatever the order.  Either way ``CapExceeded`` is
    raised before a composition would take the entries composed past
    ``CHAIN_WORK_CAP``: those of the orbit representatives, of the
    Schreier generators and of each division of a Schreier generator's
    sift (``_sift``), which runs before the next one is composed.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        if not is_perm(g):
            raise DomainError(f"not a permutation: {g}")
    n = len(gens[0]) if gens else 0
    for g in gens:
        check_dim(g, n)
    e = identity_perm(n)
    # G_k is generated by the strong generators whose first moved point
    # is k or later
    strong = [
        (next(i for i, v in enumerate(g) if v != i), g) for g in gens if g != e
    ]
    chain = [{k: e} for k in range(n)]
    work, k = 0, n - 1

    def spend(entries):
        nonlocal work
        work += entries
        if work > CHAIN_WORK_CAP:
            raise CapExceeded(
                f"stabilizer chain composed more than {CHAIN_WORK_CAP} "
                "permutation entries"
            )

    while k >= 0:
        level = [g for j, g in strong if j >= k]
        chain[k] = orbit = {k: e}
        queue = [e]
        for u in queue:
            for g in level:
                b = g[u[k]]
                if b not in orbit:
                    spend(n)
                    orbit[b] = compose(g, u)
                    queue.append(orbit[b])
        # with one point, every generator lies in G_(k+1), complete already
        if len(orbit) > 1:
            # the first Schreier generator g u that the chain does not hold,
            # as _sift leaves it; with none, level k is complete
            for u, g in itertools.product(orbit.values(), level):
                spend(n)
                residue = _sift(compose(g, u), chain, k, spend)
                if residue:
                    break
            if residue:
                strong.append(residue)
                k = residue[0]
                continue
            if cap is not None and math.prod(map(len, chain[k:])) > cap:
                raise CapExceeded(f"group closure exceeded cap of {cap} elements")
        k -= 1
    return chain


def _fill(table, prefix, levels):
    """Extend ``table`` by the entries of prefix u_k ... for each choice of
    one representative u_k per level in ``levels``, in sorted order (see
    ``generate_group``); the last level's products are never tuples."""
    if not levels:
        table.extend(prefix)
        return
    orbit, rest = levels[0], levels[1:]
    for b in sorted(orbit, key=prefix.__getitem__):
        if rest:
            _fill(table, compose(prefix, orbit[b]), rest)
        else:
            table.extend(map(prefix.__getitem__, orbit[b]))


def _sift(t, chain, k=0, spend=None):
    """Sift the permutation t, which fixes 0, ..., k - 1, through levels
    k, ..., n - 1 of a chain: at each level j that t moves, divide out
    the representative taking j to t[j], first passing the n entries of
    that composition to ``spend`` when one is given.  Returns (j, h)
    where h, which fixes 0, ..., j - 1 and moves j, leaves the chain at
    level j, or None when t sifts to the identity, that is when the
    chain's group holds t.
    """
    for j in range(k, len(t)):
        if t[j] != j:
            if t[j] not in chain[j]:
                return j, t
            if spend:
                spend(len(t))
            t = compose(inverse(chain[j][t[j]]), t)
    return None


def weyl_chain(datum):
    """The stabilizer chain of the datum's Weyl group, with no cap, built
    once per datum; for membership tests, which sift and list nothing."""
    return datum._cached("weyl-chain", stabilizer_chain, datum.weyl_generators)


class ValidationReport(
    namedtuple("ValidationReport", "a b c_lower c_upper d witnesses")
):
    """Boolean verdicts for the construction hypotheses, with witnesses.

    (a)  every ``b_i`` has 0/1 coordinates;
    (b)  the supports of the ``b_i`` partition the ambient indices and
         equal the declared blocks;
    (c-lower)  every transposition of two indices within one block lies in
         the generated Weyl group;
    (c-upper)  every Weyl generator is a permutation;
    (d)  every simple coroot descends to the quotient, every kernel
         vector is constant on each block, each d index names a ``b_i``,
         the ``d_j`` classes are independent, and each ``b_i`` class
         expands over them with the declared non-negative coefficients.
    """

    __slots__ = ()

    @property
    def all_ok(self):
        return self.a and self.b and self.c_lower and self.c_upper and self.d

    @property
    def failed(self):
        """The labels of the failing hypotheses, in field order."""
        return tuple(
            f"({name.replace('_', '-')})"
            for name in self._fields[:5]
            if not getattr(self, name)
        )


def coroot_faults(datum):
    """The (d) witnesses of the simple coroots that do not descend to the
    quotient, checked once per datum.

    A coroot descends when it annihilates the kernel; one that does not,
    or that is not of the ambient length, is a witness.  Hypothesis (d)
    and every pairing on classes rest on this one check.
    """
    return datum._cached("coroot-faults", _coroot_faults, datum)


def _coroot_faults(datum):
    n = datum.ambient_dim
    faults = []
    for j, cov in enumerate(datum.simple_coroots):
        if len(cov) != n:
            faults.append(f"(d): simple coroot {j} has length {len(cov)}, not {n}")
        elif not datum.lattice.annihilates(cov):
            faults.append(
                f"(d): simple coroot {j} does not annihilate the kernel, "
                "so it does not descend to the quotient"
            )
    return tuple(faults)


CoordinateRows = namedtuple("CoordinateRows", "rows fault")


def coordinate_rows(datum):
    """The weight-basis coordinate rows of a datum that passes validation,
    or the first fault of their premises (``rows`` is None); once per datum.

    With s coroots, A_k = coroot k / ``basis_pairing_diag[k]`` and
    u_j = sum_B n_Bj e_(a_B), a_B the first index of block B, the rows are
    A_0, ..., A_(s-1), then u_j - sum_k (lift_k . u_j) A_k for each j.  The
    premises, checked in this order, pair each coroot at its non-zero
    entries: (1) the datum has dual lifts; (2) the lifts, the d vectors
    and the kernel basis are n vectors; (3) there is one lift per coroot;
    (4) every lift has the ambient length (``DimensionMismatch`` if not);
    (5) each diagonal entry is at least 1 and divides its coroot; (6) lift
    j pairs to 0 with coroot k != j; (7) each coroot kills each d vector.

    Let S stack the lifts, the d vectors and the kernel basis.  Row k of
    S^-1 is A_k by 5-7, as coroot k descends.  Row s + j kills the lifts
    by 5 and 6, and on the block-constant d vectors and kernel, which the
    A_k kill, it reads phi_j: 1 on d_j and 0 on the other d vectors and
    the kernel, by (d) (see ``is_polynomial``).  No unimodularity is left
    to check, as S is a basis of Z^n.  By 5 and 6, Z^n is the span of the
    lifts plus X_0, the vectors that every A_k kills.  By 2, X_0 has rank
    l plus the kernel rank, so the d vectors and the kernel, in X_0 by 7
    and descent and independent by (d), span it over Q, and every vector
    of X_0 is block-constant.  An integral block-constant v is
    sum_B v[a_B] b_B by (a) and (b), and b_B is congruent to
    sum_j n_Bj d_j by (d), so X_0 is the integral span of the d vectors
    and the kernel.
    """
    return datum._cached("coordinate-rows", _coordinate_rows, datum)


def _coordinate_rows(datum):
    spec, n = f"datum {datum.spec_string}", datum.ambient_dim
    lifts, coroots = datum.dual_lifts, datum.simple_coroots

    def fault(message):
        return CoordinateRows(None, message)

    if lifts is None:
        return fault(f"{spec} has no dual lifts")
    s, l = len(lifts), datum.x0_rank
    if s + l + datum.lattice.kernel_rank != n:
        return fault(f"{spec}: basis and kernel together must have full rank")
    if s != len(coroots):
        return fault(f"{spec} has {s} dual lifts for {len(coroots)} simple coroots")
    for lift in lifts:
        check_dim(lift, n)
    columns = list(zip(*datum.weight_basis))
    supports = [[(i, c) for i, c in enumerate(cov) if c] for cov in coroots]
    pairings = []  # each coroot paired with the lifts, then the d vectors
    for entries in supports:
        got = [0] * (s + l)
        for i, c in entries:
            got = [g + c * x for g, x in zip(got, columns[i])]
        pairings.append(got)
    diag = [got[k] for k, got in enumerate(pairings)]
    for k, (entries, d) in enumerate(zip(supports, diag)):
        if d < 1:
            return fault(
                f"{spec}: dual lift {k} is not dual to the simple coroots with a "
                "positive pairing"
            )
        if any(c % d for _, c in entries):
            return fault(
                f"{spec}: dual lift {k} pairs to {d} with a coroot it does not "
                "divide, so the weight basis plus kernel is not unimodular"
            )
    for k, got in enumerate(pairings):
        j = next((j for j in range(s) if got[j] and j != k), None)
        if j is not None:
            return fault(f"{spec}: dual lift {j} pairs to {got[j]} with coroot {k}")
    for k, got in enumerate(pairings):
        if any(got[s:]):
            return fault(f"{spec}: coroot {k} pairs non-zero with a d vector")
    rows = [[c // d for c in cov] for cov, d in zip(coroots, diag)]
    for j in range(l):
        u, weights = [0] * n, [0] * s  # weights[k] = lift_k . u_j
        for blk, coeffs in zip(datum.blocks, datum.n_matrix):
            c, a = coeffs[j], blk[0]
            if c:
                u[a] += c
                weights = [w + c * x for w, x in zip(weights, columns[a])]
        for w, entries, A in zip(weights, supports, rows):
            for i, _ in entries if w else ():
                u[i] -= w * A[i]
        rows.append(u)
    return CoordinateRows(tuple(map(tuple, rows)), None)


def block_constant(vec, blocks):
    """Whether ``vec`` takes a single value on each block.  An index
    outside ``vec`` is not read: (b) reports it as a partition fault."""
    return all(
        len({vec[a] for a in blk if 0 <= a < len(vec)}) < 2 for blk in blocks
    )


def kernel_faults(datum):
    """The (d) witnesses of the kernel basis vectors that are not constant
    on every block, checked once per datum.

    A block-constant kernel moves every coordinate of a block by one
    amount, so the functional is constant on classes; ``is_polynomial``
    and the box certificate rest on this, and each witness is a (d)
    witness.  A kernel basis that is block-constant spans only
    block-constant vectors.
    """
    return datum._cached("kernel-faults", _kernel_faults, datum)


def _kernel_faults(datum):
    return tuple(
        f"(d): kernel vector {vec} is not constant on every block"
        for vec in datum.lattice.kernel_basis
        if not block_constant(vec, datum.blocks)
    )


def _d_index_outside(datum):
    """The first d index that names no row of ``b``, or None."""
    return next((i for i in datum.d_indices if not 0 <= i < len(datum.b)), None)


def shape_faults(datum):
    """The (b) and (d) witnesses, as a pair, of the shape the functional
    reads, checked once per datum: blocks partitioning the indices, d
    indices naming rows of ``b``, and one non-negative n-matrix row of
    the d-list length per block."""
    return datum._cached("shape-faults", _shape_faults, datum)


def _shape_faults(datum):
    rows, blocks, rank = datum.n_matrix, datum.blocks, datum.x0_rank
    wit_b, wit_d = [], []
    outside = _d_index_outside(datum)
    if outside is not None:
        wit_d.append(
            f"(d): d index {outside} names no row of the {len(datum.b)} "
            "block indicators"
        )
    indices = sorted(a for blk in blocks for a in blk)
    if indices != list(range(datum.ambient_dim)):
        wit_b.append("(b): the blocks do not partition the indices")
    if len(rows) != len(blocks):
        wit_d.append(
            f"(d): n-matrix row count {len(rows)} differs from "
            f"block count {len(blocks)}"
        )
    for i, row in enumerate(rows):
        if len(row) != rank:
            wit_d.append(
                f"(d): expansion of b[{i}] has length {len(row)}, not the "
                f"d-list length {rank}"
            )
        elif min(row, default=0) < 0:
            wit_d.append(f"(d): expansion of b[{i}] has a negative coefficient")
    return tuple(wit_b), tuple(wit_d)


def require_shape(datum):
    """Raise ``DomainError`` naming the first ``shape_faults`` witness; for
    callers of the functional that do not validate the datum in full."""
    faults = sum(shape_faults(datum), ())
    if faults:
        raise DomainError(
            f"{datum.spec_string} fails {faults[0]}; the functional cannot "
            "read its blocks and n-matrix"
        )


def check_hypotheses(datum):
    """Check the construction hypotheses and report per-item verdicts.

    (b) and (d) pair ``b``, ``blocks`` and the n-matrix rows by position,
    so their counts are checked too, and the rest of the shape that the
    functional reads is ``shape_faults``.

    (c-lower) is decided on the transposition graph: its vertices are the
    ambient indices, and every generator that is a transposition joins
    its two points.  Transpositions whose graph is connected generate the
    full symmetric group on its vertices: along a path x = v_0, v_1, ...,
    v_k = y, (v_0 v_(i+1)) = (v_i v_(i+1)) (v_0 v_i) (v_i v_(i+1)), so by
    induction (x y) is a product of the generators.  Hence (x y) lies in
    W whenever x and y are connected.  A pair the graph leaves apart may
    still lie in W through generators that are not transpositions.  When
    every generator is an even permutation, as for the even orthogonal
    family, W lies in the alternating group and holds no transposition,
    so each such pair is a witness at once.  Only when some generator is
    odd does such a pair fall back to the Weyl group: the transposition
    is sifted through the datum's ``weyl_chain``, and no element of W is
    listed, so no ``WEYL_CAP`` applies; a chain past ``CHAIN_WORK_CAP``
    raises ``CapExceeded``.  When some generator is not a permutation,
    (c-upper) fails and there is no Weyl group to list, so (c-lower)
    reports every such pair as a witness; the pairs that the permutation
    generators' transpositions join still pass.

    (d) speaks of the characters killed by every coroot, which is defined
    on classes only when each simple coroot annihilates the kernel, and
    expands each block indicator over the d classes, which the functional
    reads blockwise only when the kernel is constant on every block; each
    ``coroot_faults`` and ``kernel_faults`` witness is a (d) witness.
    """
    n = datum.ambient_dim
    wit_a, wit_b, wit_c_upper, wit_c_lower, wit_d = [], [], [], [], []

    for i, b_vec in enumerate(datum.b):
        if not set(b_vec) <= {0, 1}:
            wit_a.append(f"(a): b[{i}] has a coordinate outside 0/1")

    if len(datum.b) != len(datum.blocks):
        wit_b.append(
            f"(b): block indicator count {len(datum.b)} differs from block "
            f"count {len(datum.blocks)}"
        )
    for i, (b_vec, blk) in enumerate(zip(datum.b, datum.blocks)):
        support = tuple(k for k, c in enumerate(b_vec) if c)
        if support != tuple(sorted(blk)):
            wit_b.append(f"(b): support of b[{i}] differs from block {i}")
    shape_b, shape_d = shape_faults(datum)
    wit_b.extend(shape_b)

    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    all_even = True
    for g in datum.weyl_generators:
        if len(g) != n or not is_perm(g):
            wit_c_upper.append(f"(c-upper): generator {g} is not a permutation")
            all_even = False
            continue
        all_even = all_even and is_even_perm(g)
        moved = [i for i, v in enumerate(g) if v != i]
        if len(moved) == 2:
            parent[root(moved[0])] = root(moved[1])

    for bi, blk in enumerate(datum.blocks):
        for x, y in itertools.combinations(sorted(blk), 2):
            # a pair with an index out of range is (b)'s partition witness
            if x < 0 or y >= n or root(x) == root(y):
                continue
            # W is undefined when a generator is not a permutation
            if (
                all_even
                or wit_c_upper
                or _sift(transposition(n, x, y), weyl_chain(datum)) is not None
            ):
                wit_c_lower.append(
                    f"(c-lower): transposition ({x}, {y}) within block {bi} "
                    "is not in the generated Weyl group"
                )

    wit_d.extend(coroot_faults(datum))
    wit_d.extend(kernel_faults(datum))
    # a d index outside b is a shape witness, and leaves no d classes
    d_vecs = datum.d_vectors if _d_index_outside(datum) is None else None
    if d_vecs is not None:
        stacked = list(d_vecs) + list(datum.lattice.kernel_basis)
        rows, _ = _echelonize(stacked, n)
        if len(rows) != len(stacked):
            wit_d.append("(d): the d classes are linearly dependent")
    wit_d.extend(shape_d)
    if d_vecs is not None:
        for i, (b_vec, row) in enumerate(zip(datum.b, datum.n_matrix)):
            combo = [0] * n
            for coeff, d_vec in zip(row, d_vecs):
                if coeff:
                    for idx, dv in enumerate(d_vec):
                        combo[idx] += coeff * dv
            if not datum.lattice.equal_mod_kernel(b_vec, tuple(combo)):
                wit_d.append(f"(d): b[{i}] does not expand over the d classes")

    return ValidationReport(
        a=not wit_a, b=not wit_b, c_lower=not wit_c_lower,
        c_upper=not wit_c_upper, d=not wit_d,
        witnesses=tuple(wit_a + wit_b + wit_c_upper + wit_c_lower + wit_d),
    )
