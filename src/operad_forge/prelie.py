"""Grafting composition of labelled rooted trees and its linear span.

The composition of two trees at a vertex is a sum over all ways of
regrafting the displaced children onto the inserted tree; each choice
is a graft map.  Sums live in :class:`TreeSum`, formal integer
combinations of same-arity trees.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from .trees import (
    LabelledRootedTree,
    TreeError,
    _arity,
    _degree,
    _standard,
    act,
    degree,
    enumerate_trees,
    epsilon,
    gap,
    parse_tree,
)
from .sweep import _sweep

GraftMap = Mapping[int, int]


def _check_compose_args(i: int, n: int) -> None:
    """The one check on a composition position: an int in 1..n."""
    if type(i) is not int or not 1 <= i <= n:
        raise TreeError(f"position {i!r} out of range for arity {n}")


def _graft_kernel(par: tuple[int, ...], i: int, m: int):
    """T's part of T o_i S, for every S of arity m.

    ``par`` is T's parent tuple.  Returns ``(children, ends, splice)``:
    ``children`` lists the children of i in ascending order;
    ``ends(targets)`` is T's part of the term for one graft map, given
    by its images of ``children`` (trusted to lie in 1..m), as a
    ``(head, tail)`` pair of tuples; and ``splice(ins)`` is S's part for
    the S with parent tuple ``ins`` (of length m, else a ``TreeError``).
    A term's parent tuple is ``head + splice(ins) + tail``, so T's part
    is patched once per graft map and S's spliced once per S.
    """
    _check_compose_args(i, len(par))
    d, up = i - 1, m - 1  # shifts of inserted labels and of tree labels above i
    out = [p if p < i else p + up for p in par]  # 0, the root mark, stays 0
    hook = out[d]  # what S's root hangs on
    children = [k for k, p in enumerate(par, 1) if p == i] if i in par else []

    def ends(targets) -> tuple[tuple[int, ...], tuple[int, ...]]:
        for k, t in zip(children, targets):  # each map sets every child's slot
            out[k - 1] = t + d
        return tuple(out[:d]), tuple(out[i:])

    def splice(ins: tuple[int, ...]) -> tuple[int, ...]:
        if len(ins) != m:
            tree = LabelledRootedTree._from_par(ins)
            raise TreeError(f"inserted tree {tree} has arity {tree.n}, expected {m}")
        return tuple([q + d if q else hook for q in ins])

    return children, ends, splice


def graft_compose(
    tree: LabelledRootedTree,
    i: int,
    inserted: LabelledRootedTree,
    f: GraftMap,
) -> LabelledRootedTree:
    """Substitute ``inserted`` for vertex i, regrafting children by f.

    Labels of ``inserted`` shift up by i-1 and labels of ``tree`` above i
    shift up by m-1, so the result is standard of arity n+m-1.  Each
    child j of i becomes a child of the shifted vertex f(j)+i-1.
    """
    par, ins = _standard(tree), _standard(inserted)
    m = len(ins)
    children, ends, splice = _graft_kernel(par, i, m)
    if f.keys() != set(children):
        raise TreeError("graft map must be total on the children of i")
    for target in f.values():
        if type(target) is not int or not 1 <= target <= m:
            raise TreeError(f"graft target {target!r} out of range for arity {m}")
    head, tail = ends([f[k] for k in children])
    return LabelledRootedTree._from_par(head + splice(ins) + tail)


def graft_maps(
    tree: LabelledRootedTree, i: int, m: int
) -> Iterator[dict[int, int]]:
    """All maps from the children of i into [m], lexicographic by child label."""
    children = tree.children(i)
    _arity(m, 1, "the inserted tree has arity at least 1")
    for targets in itertools.product(range(1, m + 1), repeat=len(children)):
        yield dict(zip(children, targets))


def f_min_map(tree: LabelledRootedTree, i: int, m: int) -> dict[int, int]:
    """Children below i regraft onto vertex 1, children above onto vertex m."""
    _arity(m, 1, "the inserted tree has arity at least 1")
    return {k: (1 if k < i else m) for k in tree.children(i)}


def f_max_map(tree: LabelledRootedTree, i: int, m: int) -> dict[int, int]:
    """Children below i regraft onto vertex m, children above onto vertex 1."""
    _arity(m, 1, "the inserted tree has arity at least 1")
    return {k: (m if k < i else 1) for k in tree.children(i)}


class TreeSum:
    """A formal integer combination of trees of one common arity.

    Terms are stored by the trees' parent tuples, so hashing and
    equality of terms run on tuples; :meth:`terms` and :meth:`trees`
    build the trees on demand.  Zero coefficients are dropped eagerly,
    so equality of sums is equality of their term maps.  Instances are
    immutable.
    """

    __slots__ = ("_arity", "_terms")

    def __init__(
        self, arity: int, terms: Mapping[LabelledRootedTree, int] | None = None
    ):
        self._arity = _arity(arity, 1, "a sum has arity at least 1")
        self._terms: dict[tuple[int, ...], int] = {}
        if terms:
            self._merge((_standard(t), c) for t, c in terms.items())

    def _merge(self, pairs) -> "TreeSum":
        """Add (parent tuple, coefficient) pairs into this new sum; a zero total drops its term."""
        terms, arity = self._terms, self._arity
        for par, coeff in pairs:
            if len(par) != arity:
                tree = LabelledRootedTree._from_par(par)
                raise TreeError(f"term {tree} has arity {tree.n}, expected {arity}")
            if type(coeff) is not int:
                tree = LabelledRootedTree._from_par(par)
                raise TreeError(f"coefficient {coeff!r} of {tree} is not an integer")
            terms[par] = total = terms.get(par, 0) + coeff
            if not total:
                del terms[par]
        return self

    @classmethod
    def single(cls, tree: LabelledRootedTree, coeff: int = 1) -> "TreeSum":
        par = _standard(tree)
        return cls(len(par))._merge([(par, coeff)])

    @property
    def arity(self) -> int:
        return self._arity

    def terms(self) -> list[tuple[LabelledRootedTree, int]]:
        """Terms sorted by canonical tree string."""
        items = [(LabelledRootedTree._from_par(p), c) for p, c in self._terms.items()]
        return sorted(items, key=lambda item: str(item[0]))

    def trees(self) -> set[LabelledRootedTree]:
        return set(map(LabelledRootedTree._from_par, self._terms))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "TreeSum") -> "TreeSum":
        if not isinstance(other, TreeSum):
            raise TreeError(f"cannot add {other!r} to a sum of trees")
        if other._arity != self._arity:
            raise TreeError("cannot add sums of different arities")
        return TreeSum(self._arity)._merge(self._terms.items())._merge(other._terms.items())

    def __neg__(self) -> "TreeSum":
        return -1 * self

    def __sub__(self, other: "TreeSum") -> "TreeSum":
        return -(-self + other)  # __add__ checks other before anything negates it

    def __rmul__(self, scalar: int) -> "TreeSum":
        if type(scalar) is not int:
            raise TreeError(f"scalar {scalar!r} is not an integer")
        return TreeSum(self._arity)._merge((t, scalar * c) for t, c in self._terms.items())

    def map_trees(self, fn) -> "TreeSum":
        """Apply fn to each basis tree, merging coefficients on collisions."""
        return TreeSum(self._arity)._merge(
            (_standard(fn(LabelledRootedTree._from_par(p))), c) for p, c in self._terms.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeSum):
            return NotImplemented
        return self._arity == other._arity and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._arity, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k, (tree, coeff) in enumerate(self.terms()):
            if k == 0:
                parts.append(f"{coeff}*{tree}")
            elif coeff > 0:
                parts.append(f" + {coeff}*{tree}")
            else:
                parts.append(f" - {-coeff}*{tree}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"TreeSum({self!s})"


def _staged(compose):
    """compose's staged form ``at(x, i, m) -> (y -> compose(x, i, y))``, for y of arity m.

    A built-in composition keeps its own as ``compose.at``, which builds
    x's part of the kernel once; any other composition is staged as is.
    """
    return getattr(compose, "at", None) or (lambda x, i, m: lambda y: compose(x, i, y))


def compose_pl(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> TreeSum:
    """Sum of graft compositions over all graft maps, each with coefficient 1."""
    return compose_pl_linear(TreeSum.single(tree), i, TreeSum.single(inserted))


def _pl_at(a: TreeSum, i: int, m: int):
    # compose_pl_linear staged: per term of a, one kernel and T's part for every graft map
    if not isinstance(a, TreeSum):
        raise TreeError(f"linear composition takes two TreeSums, got {a!r}")
    _check_compose_args(i, a.arity)
    arity, outer = a.arity + m - 1, []
    for t, ct in a._terms.items():
        children, ends, splice = _graft_kernel(t, i, m)
        maps = itertools.product(range(1, m + 1), repeat=len(children))
        outer.append((list(map(ends, maps)), splice, ct))

    def at(b: TreeSum) -> TreeSum:
        if not isinstance(b, TreeSum) or b.arity != m:
            raise TreeError(f"linear composition at arity {m} takes a TreeSum of it, got {b!r}")
        out = TreeSum(arity)
        # T o_i S with a graft map determines T, S and the map, so no two terms meet
        # and every coefficient is a product of nonzero ints: nothing to merge
        terms = out._terms
        for pairs, splice, ct in outer:
            for s, cs in b._terms.items():
                mid = splice(s)
                grafts = [head + mid + tail for head, tail in pairs]
                terms.update(zip(grafts, itertools.repeat(ct * cs)))
        return out

    return at


def compose_pl_linear(a: TreeSum, i: int, b: TreeSum) -> TreeSum:
    """Bilinear extension of :func:`compose_pl` to formal sums."""
    if not (isinstance(a, TreeSum) and isinstance(b, TreeSum)):
        raise TreeError(f"linear composition takes two TreeSums, got {a!r} and {b!r}")
    return _pl_at(a, i, b.arity)(b)


def _one_map_at(tree: LabelledRootedTree, i: int, m: int, below: int, above: int):
    # a one-map composition staged: i's children below i regraft onto below, the others onto above
    children, ends, splice = _graft_kernel(_standard(tree), i, m)
    head, tail = ends([below if k < i else above for k in children] if children else ())

    def at(inserted: LabelledRootedTree) -> LabelledRootedTree:
        return LabelledRootedTree._from_par(head + splice(_standard(inserted)) + tail)

    return at


def min_term(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> LabelledRootedTree:
    """The unique degree-minimal term of the composition (graft map f_min_map)."""
    m = len(_standard(inserted))
    return _one_map_at(tree, i, m, 1, m)(inserted)


def max_term(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> LabelledRootedTree:
    """The unique degree-maximal term of the composition (graft map f_max_map)."""
    m = len(_standard(inserted))
    return _one_map_at(tree, i, m, m, 1)(inserted)


compose_pl_linear.at = _pl_at
min_term.at = lambda tree, i, m: _one_map_at(tree, i, m, 1, m)
max_term.at = lambda tree, i, m: _one_map_at(tree, i, m, m, 1)


def degree_bounds(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> tuple[int, int]:
    """Exact lower and upper bounds for term degrees of the composition."""
    _check_compose_args(i, len(_standard(tree)))
    m = len(_standard(inserted))
    lo = (
        degree(tree)
        + degree(inserted)
        + gap(tree, i) * (m - 1)
        + epsilon(tree, i, m, inserted.root)
    )
    hi = lo + len(tree.children(i)) * (m - 1)
    return lo, hi


def check_extremal_terms(max_arity: int) -> list[str]:
    """Verify min/max uniqueness and bound attainment over small arities.

    For every (T, i, S) with arities up to max_arity, the degrees of the
    composition terms must attain the exact bounds, each at exactly one
    graft map, namely the extremal maps.  Returns failure descriptions.
    """
    _arity(max_arity, 2, "max_arity must be at least 2")
    arities = range(1, max_arity + 1)
    basis = {m: list(enumerate_trees(m)) for m in arities}

    def extremal(item) -> list[str]:
        t, i = item
        failures: list[str] = []
        for m in arities:  # one kernel and extremal stages per (T, i, m), in the basis order of S
            children, ends, splice = _graft_kernel(t._par, i, m)
            pairs = list(map(ends, itertools.product(range(1, m + 1), repeat=len(children))))
            lo_at, hi_at = _staged(min_term)(t, i, m), _staged(max_term)(t, i, m)
            for s in basis[m]:
                lo, hi = degree_bounds(t, i, s)
                mid = splice(s._par)
                degs = [_degree(enumerate(head + mid + tail, 1)) for head, tail in pairs]
                # one graft map at least, so lo == hi forces a single degree
                ok = (
                    min(degs) == lo
                    and max(degs) == hi
                    and degs.count(lo) == 1
                    and degs.count(hi) == 1
                    and degree(lo_at(s)) == lo
                    and degree(hi_at(s)) == hi
                )
                if not ok:
                    failures.append(
                        f"T={t} i={i} S={s} bounds=({lo},{hi}) degrees={sorted(degs)}"
                    )
        return failures

    items = [(t, i) for m in arities for t in basis[m] for i in range(1, m + 1)]
    return [line for found in _sweep(items, extremal) for line in found]


def pre_lie_associator(mu: LabelledRootedTree) -> TreeSum:
    """The associator (mu o_1 mu) - (mu o_2 mu) of a two-vertex tree."""
    return compose_pl(mu, 1, mu) - compose_pl(mu, 2, mu)


def check_pre_lie_relation() -> bool:
    """Right-symmetry of the associator for the generating two-vertex tree.

    Swapping the last two inputs is the label transposition (2 3); the
    product is pre-Lie exactly when the associator is fixed by it.
    """
    mu = parse_tree("1(2)")
    assoc = pre_lie_associator(mu)
    swap = {1: 1, 2: 3, 3: 2}
    return assoc.map_trees(lambda t: act(swap, t)) == assoc
