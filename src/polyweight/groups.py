"""Construction data for the supported classical group families.

Every supported family (general linear, symplectic similitude, odd and even
orthogonal similitude, Levi subgroups of block-diagonal shape) is described
by one uniform datum of independent facts, from which the ambient
dimension, the weight basis and its pairing diagonal are derived:

* a quotient lattice modelling the character group of the diagonal torus,
* a partition of the ambient indices into blocks,
* 0/1 indicator weights ``b_i`` supported exactly on those blocks,
* a distinguished sublist ``d_1 .. d_l`` of the ``b_i`` whose classes are a
  basis of the characters killed by every coroot,
* non-negative integers ``n_ij`` expanding each class of ``b_i`` over the
  ``d_j``,
* simple roots, simple coroot covectors, and Weyl generators realized as
  index permutations of the ambient coordinates,
* one dual lift per simple coroot, pairing to 0 with every other one.

The primed-index convention is the mirror i' = n - 1 - i (0-indexed), so
symplectic and orthogonal blocks pair the outermost coordinates first.

Coroot covectors are normalized by three requirements: they annihilate the
kernel sublattice, they reproduce the standard Cartan matrix of the
family's type, and they pair to zero with every ``d_j``.  This pins them
down uniquely; in particular the short-root coroot of the odd orthogonal
family is twice a primitive covector, so its pairings with integer
characters are always even, and its dual lift pairs to 2 with it.

This module holds construction only.  The hypotheses a datum must meet
and its Weyl group live in :mod:`polyweight.weyl`, which ``validate_datum``
and ``GroupDatum.weyl_group`` load on their first call, so building a
datum loads this module, ``lattice`` and ``errors`` and nothing else.
"""

import itertools
from collections import namedtuple

from .errors import DomainError
from .lattice import QuotientLattice, pair, vec_scale, vec_sub


class _CachedRecord:
    """Field-wise repr and equality for a mutable record with one memo.

    ``_fields`` names the compared and printed attributes, in order; the
    ``_cache`` dict, which only ``_cached`` reads or writes, is neither.
    Instances are unhashable.
    """

    _fields = ()
    __hash__ = None

    def _cached(self, key, compute, *args):
        """``compute(*args)``, once per ``key``; a hit allocates nothing."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute(*args)
            return value

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        args = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _replace(self, **changes):
        """A record of the same type with the named fields replaced and an
        empty cache; an unknown name is the constructor's ``TypeError``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class GroupDatum(_CachedRecord):
    """Immutable description of one group family instance.

    ``dual_lifts`` holds one ambient lift per simple coroot, or None for
    a family that admits none.  Derived: ``ambient_dim`` (the lattice's)
    and, computed on first use and None without lifts, ``weight_basis``
    (the lifts, then the d vectors) and ``basis_pairing_diag`` (lift k
    paired with coroot k, 1 or 2).  ``ClassificationContext`` refuses
    lifts that are not dual to the coroots.
    """

    _fields = tuple(
        "family spec_string lattice blocks b d_indices n_matrix simple_roots "
        "simple_coroots weyl_generators positive_root_sum_twice dual_lifts".split()
    )

    def __init__(
        self, family, spec_string, lattice, blocks, b, d_indices, n_matrix,
        simple_roots, simple_coroots, weyl_generators, positive_root_sum_twice,
        dual_lifts,
    ):
        self.family = family
        self.spec_string = spec_string
        self.lattice = lattice
        self.blocks = blocks
        self.b = b
        self.d_indices = d_indices
        self.n_matrix = n_matrix
        self.simple_roots = simple_roots
        self.simple_coroots = simple_coroots
        self.weyl_generators = weyl_generators
        self.positive_root_sum_twice = positive_root_sum_twice
        self.dual_lifts = dual_lifts
        self.ambient_dim = lattice.ambient_dim
        self._cache = {}

    @property
    def num_blocks(self):
        return len(self.blocks)

    @property
    def x0_rank(self):
        return len(self.d_indices)

    @property
    def d_vectors(self):
        return tuple(self.b[i] for i in self.d_indices)

    @property
    def weight_basis(self):
        return self._cached("weight-basis", _weight_basis, self)

    @property
    def basis_pairing_diag(self):
        return self._cached("pairing-diag", _pairing_diag, self)

    def weyl_group(self):
        """All Weyl elements, sorted and cached, as a ``weyl.PermutationTable``
        that yields each one as a tuple; CapExceeded above WEYL_CAP."""
        from .weyl import generate_group, identity_perm

        gens = self.weyl_generators or (identity_perm(self.ambient_dim),)
        return self._cached("weyl", generate_group, gens)

    def validation(self):
        return self._cached("validation", validate_datum, self)


def _weight_basis(datum):
    lifts = datum.dual_lifts
    return None if lifts is None else tuple(lifts) + datum.d_vectors


def _pairing_diag(datum):
    lifts = datum.dual_lifts
    return None if lifts is None else tuple(map(pair, lifts, datum.simple_coroots))


# Largest ambient dimension a builder accepts: a datum holds O(n) dense
# length-n vectors, so gsp:2048 already takes seconds and about 500 MiB.
AMBIENT_DIM_CAP = 2_048


def _require_index(n):
    """Refuse an ambient dimension above ``AMBIENT_DIM_CAP``."""
    if n > AMBIENT_DIM_CAP:
        raise DomainError(
            f"unsupported rank: ambient dimension {n} exceeds {AMBIENT_DIM_CAP}"
        )


def _built_in(datum):
    """Mark a datum as a builder's own, in its memo; ``_replace`` gives a
    record with an empty memo, so the mark names exactly the data a
    builder returned.  ``affine`` reads it as its orbit gate."""
    datum._cached("built-in", bool, True)
    return datum


def _indicator(n, support):
    s = set(support)
    return tuple(1 if k in s else 0 for k in range(n))


def _root_sum(n, pairs):
    """The ambient vector sum of e_i - e_j over the index pairs (i, j)."""
    out = [0] * n
    for i, j in pairs:
        out[i] += 1
        out[j] -= 1
    return tuple(out)


def _swaps(n, pairs):
    """The permutation of range(n) swapping each index pair (i, j) in turn."""
    p = list(range(n))
    for i, j in pairs:
        p[i], p[j] = p[j], p[i]
    return tuple(p)


def _root(n, i, j):
    """The ambient vector e_i - e_j."""
    return _root_sum(n, ((i, j),))


def _block_diagonal(parts, family, spec_string):
    """The datum of the block-diagonal Levi subgroup with these block sizes."""
    n = sum(parts)
    ends = itertools.accumulate(parts)
    blocks = tuple(tuple(range(end - size, end)) for size, end in zip(parts, ends))
    b = tuple(_indicator(n, blk) for blk in blocks)
    roots, gens, dual = [], [], []
    two_rho = [0] * n
    for blk in blocks:
        size = len(blk)
        for a in range(size - 1):
            i = blk[a]
            roots.append(_root(n, i, i + 1))
            gens.append(_swaps(n, ((i, i + 1),)))
            dual.append(_indicator(n, blk[: a + 1]))
        for a in range(size):
            two_rho[blk[a]] = size - 1 - 2 * a
    return _built_in(GroupDatum(
        family=family,
        spec_string=spec_string,
        lattice=QuotientLattice(n),
        blocks=blocks,
        b=b,
        d_indices=tuple(range(len(parts))),
        n_matrix=tuple(_indicator(len(parts), (i,)) for i in range(len(parts))),
        simple_roots=tuple(roots),
        simple_coroots=tuple(roots),
        weyl_generators=tuple(gens),
        positive_root_sum_twice=tuple(two_rho),
        dual_lifts=tuple(dual),
    ))


def build_gl(n):
    """General linear group of rank n: the Levi subgroup with one block."""
    if n < 1:
        raise ValueError("gl needs n >= 1")
    _require_index(n)
    return _block_diagonal((n,), "gl", f"gl:{n}")


def build_levi(parts):
    """Block-diagonal Levi subgroup of GL_n with the given block sizes."""
    parts = tuple(int(x) for x in parts)
    if not parts or min(parts) < 1:
        raise ValueError("levi needs a non-empty list of positive part sizes")
    _require_index(sum(parts))
    return _block_diagonal(parts, "levi", "levi:" + ",".join(map(str, parts)))


_Mirrored = namedtuple("_Mirrored", "blocks b roots coroots swaps positive_pairs")


def _mirrored(n, l):
    """What the symplectic and orthogonal families share.

    The l mirrored blocks (i, i') with their indicators; the first l - 1
    simple roots e_j - e_(j+1), their paired coroots
    e_j - e_(j+1) - e_j' + e_(j+1)' and the block swaps that realize them;
    and the index pairs (i, j) of the positive roots e_i - e_j that the
    three families share, (a, c) and (a, c') for a < c < l.
    """
    blocks = tuple((i, n - 1 - i) for i in range(l))
    pairs = [(a, c) for a in range(l) for c in range(a + 1, l)]
    pairs += [(a, n - 1 - c) for a in range(l) for c in range(a + 1, l)]
    return _Mirrored(
        blocks=blocks,
        b=tuple(_indicator(n, blk) for blk in blocks),
        roots=tuple(_root(n, j, j + 1) for j in range(l - 1)),
        coroots=tuple(
            _root_sum(n, ((j, j + 1), (n - 2 - j, n - 1 - j))) for j in range(l - 1)
        ),
        swaps=tuple(
            _swaps(n, ((i, i + 1), (n - 1 - i, n - 2 - i))) for i in range(l - 1)
        ),
        positive_pairs=pairs,
    )


def build_gsp(two_l):
    """Symplectic similitude group of ambient dimension 2l."""
    if two_l < 2 or two_l % 2:
        raise ValueError("gsp needs an even ambient dimension >= 2")
    _require_index(two_l)
    n = two_l
    l = n // 2
    m = _mirrored(n, l)
    last = _root(n, l - 1, l)
    return _built_in(GroupDatum(
        family="gsp",
        spec_string=f"gsp:{n}",
        lattice=QuotientLattice(
            n, tuple(vec_sub(m.b[i], m.b[i + 1]) for i in range(l - 1))
        ),
        blocks=m.blocks,
        b=m.b,
        d_indices=(0,),
        n_matrix=((1,),) * l,
        simple_roots=m.roots + (last,),
        simple_coroots=m.coroots + (last,),
        weyl_generators=m.swaps
        + tuple(_swaps(n, ((i, n - 1 - i),)) for i in range(l)),
        positive_root_sum_twice=_root_sum(
            n, m.positive_pairs + [(a, n - 1 - a) for a in range(l)]
        ),
        dual_lifts=tuple(_indicator(n, range(k)) for k in range(1, l + 1)),
    ))


def build_go_odd(odd_n):
    """Odd orthogonal similitude group of ambient dimension 2l + 1."""
    if odd_n < 3 or odd_n % 2 == 0:
        raise ValueError("go_odd needs an odd ambient dimension >= 3")
    _require_index(odd_n)
    n = odd_n
    l = mid = n // 2
    m = _mirrored(n, l)
    b = m.b + (_indicator(n, (mid,)),)
    return _built_in(GroupDatum(
        family="go_odd",
        spec_string=f"go:{n}",
        lattice=QuotientLattice(
            n, tuple(vec_sub(b[i], vec_scale(2, b[l])) for i in range(l))
        ),
        blocks=m.blocks + ((mid,),),
        b=b,
        d_indices=(l,),
        n_matrix=((2,),) * l + ((1,),),
        simple_roots=m.roots + (_root(n, l - 1, mid),),
        simple_coroots=m.coroots + (vec_scale(2, _root(n, l - 1, l + 1)),),
        weyl_generators=m.swaps
        + tuple(_swaps(n, ((i, n - 1 - i),)) for i in range(l)),
        positive_root_sum_twice=_root_sum(
            n, m.positive_pairs + [(a, mid) for a in range(l)]
        ),
        dual_lifts=tuple(_indicator(n, range(k)) for k in range(1, l + 1)),
    ))


def build_go_even(two_l):
    """Even orthogonal similitude group of ambient dimension 2l.

    The sign part of the Weyl group only contains even numbers of
    within-block swaps, so this family fails the lower Weyl-group
    hypothesis; classification entry points reject it while the ambient
    counterexample machinery accepts it.
    """
    if two_l < 4 or two_l % 2:
        raise ValueError("go_even needs an even ambient dimension >= 4")
    _require_index(two_l)
    n = two_l
    l = n // 2
    m = _mirrored(n, l)
    return _built_in(GroupDatum(
        family="go_even",
        spec_string=f"go:{n}",
        lattice=QuotientLattice(
            n, tuple(vec_sub(m.b[i], m.b[i + 1]) for i in range(l - 1))
        ),
        blocks=m.blocks,
        b=m.b,
        d_indices=(0,),
        n_matrix=((1,),) * l,
        simple_roots=m.roots + (_root(n, l - 2, l),),
        simple_coroots=m.coroots + (_root_sum(n, ((l - 2, n + 1 - l), (l - 1, l))),),
        weyl_generators=m.swaps + tuple(
            _swaps(n, ((i, n - 1 - i), (i + 1, n - 2 - i))) for i in range(l - 1)
        ),
        positive_root_sum_twice=_root_sum(n, m.positive_pairs),
        dual_lifts=None,
    ))


def permute_d(datum, order):
    """The same group datum with its distinguished list reordered.

    ``order`` is a permutation of the d-list positions; entry j of the
    new list is entry ``order[j]`` of the old one.  The expansion-matrix
    columns are reordered to match and nothing else is stored, so the
    weight basis, whose tail is the d vectors, follows the new order and
    the result states the same construction facts as the input;
    ``tests/test_groups.py`` checks them on every order of the built-in
    Levi shapes.  The functional of the reordered datum is the matching
    coordinate permutation of the original functional.
    """
    if sorted(order) != list(range(datum.x0_rank)):
        raise DomainError(
            "order must be a permutation of the d-list positions "
            f"0..{datum.x0_rank - 1}, got {tuple(order)}"
        )
    return datum._replace(
        d_indices=tuple(datum.d_indices[j] for j in order),
        n_matrix=tuple(tuple(row[j] for j in order) for row in datum.n_matrix),
    )


def validate_datum(datum):
    """Check the construction hypotheses: ``weyl.check_hypotheses``."""
    from .weyl import check_hypotheses

    return check_hypotheses(datum)


def x0_basis(datum):
    """Ambient lifts of the basis of the coroot-orthogonal characters."""
    report = datum.validation()
    if not report.d:
        raise DomainError("datum failed hypothesis (d); no distinguished basis")
    return datum.d_vectors


def parse_group_spec(spec):
    """Parse 'gl:N', 'gsp:N', 'go:N' or 'levi:N1,N2,...' into a datum."""
    text = spec.strip()
    if ":" not in text:
        raise ValueError(f"malformed group spec {spec!r}: expected FAMILY:SIZE")
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "levi":
            parts = [int(x) for x in rest.split(",")]
            return build_levi(parts)
        value = int(rest)
        if name == "gl":
            return build_gl(value)
        if name == "gsp":
            return build_gsp(value)
        if name == "go":
            if value % 2:
                return build_go_odd(value)
            return build_go_even(value)
    except DomainError:
        raise
    except ValueError as exc:
        raise ValueError(f"malformed group spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown group family {name!r}")
