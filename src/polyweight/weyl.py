"""Weyl elements as index permutations, and the hypotheses over them.

Weyl group elements are index permutations stored as tuples p with p[i]
the image of i, acting on weights by ``act(p, w)[p[i]] == w[i]``.

``check_hypotheses`` decides the construction hypotheses (a)-(d) of a
group datum; (c) quantifies over the Weyl group the datum's generators
generate; each rule is stated here once.  Building a datum does not
load this module: it loads the first time a datum is validated or its
Weyl group is asked for.
"""

import itertools
from collections import namedtuple

from .errors import CapExceeded, DomainError
from .lattice import _echelonize, check_dim

Perm = tuple  # tuple[int, ...]

# Most elements ``generate_group`` materialises, read at each call.
WEYL_CAP = 100_000


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
    return tuple(p[q[i]] for i in range(len(p)))


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
    """The full closure of a generating set of permutations, sorted.

    Raises CapExceeded when the group has more than ``WEYL_CAP`` elements.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        if not is_perm(g):
            raise ValueError(f"not a permutation: {g}")
    n = len(gens[0]) if gens else 0
    for g in gens:
        check_dim(g, n)
    seen = {identity_perm(n)} if n else {()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = compose(g, w)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
                    if len(seen) > WEYL_CAP:
                        raise CapExceeded(
                            f"group closure exceeded cap of {WEYL_CAP} elements"
                        )
        frontier = nxt
    return sorted(seen)


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
         vector is constant on each block, the ``d_j`` classes are
         independent, and each ``b_i`` class expands over them with the
         declared non-negative coefficients.
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
    cache = datum._cache
    if "coroot-faults" not in cache:
        n = datum.ambient_dim
        faults = []
        for j, cov in enumerate(datum.simple_coroots):
            if len(cov) != n:
                faults.append(
                    f"(d): simple coroot {j} has length {len(cov)}, not {n}"
                )
            elif not datum.lattice.annihilates(cov):
                faults.append(
                    f"(d): simple coroot {j} does not annihilate the kernel, "
                    "so it does not descend to the quotient"
                )
        cache["coroot-faults"] = tuple(faults)
    return cache["coroot-faults"]


def block_constant(vec, blocks):
    """Whether ``vec`` takes a single value on each block."""
    for blk in blocks:
        for a in blk[1:]:
            if vec[a] != vec[blk[0]]:
                return False
    return True


def kernel_faults(datum):
    """The (d) witnesses of the kernel basis vectors that are not constant
    on every block, checked once per datum.

    A block-constant kernel moves every coordinate of a block by one
    amount, so the functional is constant on classes; ``is_polynomial``
    and the box certificate rest on this, and each witness is a (d)
    witness.  A kernel basis that is block-constant spans only
    block-constant vectors.
    """
    cache = datum._cache
    if "kernel-faults" not in cache:
        cache["kernel-faults"] = tuple(
            f"(d): kernel vector {vec} is not constant on every block"
            for vec in datum.lattice.kernel_basis
            if not block_constant(vec, datum.blocks)
        )
    return cache["kernel-faults"]


def shape_faults(datum):
    """The (b) and (d) witnesses, as a pair, of the shape the functional
    reads, checked once per datum: blocks partitioning the indices, and
    one non-negative n-matrix row of the d-list length per block."""
    cache = datum._cache
    if "shape-faults" not in cache:
        rows, blocks, rank = datum.n_matrix, datum.blocks, datum.x0_rank
        wit_b, wit_d = [], []
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
        cache["shape-faults"] = (tuple(wit_b), tuple(wit_d))
    return cache["shape-faults"]


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
    odd does such a pair fall back to the Weyl closure.

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

    closure = None
    for bi, blk in enumerate(datum.blocks):
        for x, y in itertools.combinations(sorted(blk), 2):
            if root(x) == root(y):
                continue
            if closure is None and not all_even:
                closure = set(datum.weyl_group())
            if all_even or transposition(n, x, y) not in closure:
                wit_c_lower.append(
                    f"(c-lower): transposition ({x}, {y}) within block {bi} "
                    "is not in the generated Weyl group"
                )

    wit_d.extend(coroot_faults(datum))
    wit_d.extend(kernel_faults(datum))
    d_vecs = datum.d_vectors
    stacked = list(d_vecs) + list(datum.lattice.kernel_basis)
    rows, _ = _echelonize(stacked, n)
    if len(rows) != len(stacked):
        wit_d.append("(d): the d classes are linearly dependent")
    wit_d.extend(shape_d)
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
