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
    _standard,
    act,
    degree,
    enumerate_trees,
    epsilon,
    gap,
    parse_tree,
)

GraftMap = Mapping[int, int]


def _check_compose_args(i: int, n: int) -> None:
    """The one check on a composition position: an int in 1..n."""
    if type(i) is not int or not 1 <= i <= n:
        raise TreeError(f"position {i!r} out of range for arity {n}")


def _graft_kernel(tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree):
    """The terms of T o_i S, sharing what no graft map changes.

    Returns ``(graft, children)``: ``children`` lists the children of i
    in ascending order, and ``graft(targets)`` is the term whose graft
    map sends them to ``targets`` (trusted to lie in 1..m).  Each call
    patches only the children's slots of a base built once.
    """
    par, ins = _standard(tree), _standard(inserted)
    _check_compose_args(i, len(par))
    d, up = i - 1, len(ins) - 1  # shifts of inserted labels and of tree labels above i
    out = [p if p < i else p + up for p in par]  # 0, the root mark, stays 0
    base = out[:d] + [q + d if q else out[d] for q in ins] + out[i:]
    children = [k for k, p in enumerate(par, 1) if p == i]
    slots = [k - 1 if k < i else k + up - 1 for k in children]
    root = base.index(0) + 1  # children's slots hold i + up, never 0

    def graft(targets) -> LabelledRootedTree:
        term = base[:]
        for k, t in zip(slots, targets):
            term[k] = t + d
        return LabelledRootedTree._from_par(tuple(term), root)

    return graft, children


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
    graft, children = _graft_kernel(tree, i, inserted)
    m = inserted.n
    if f.keys() != set(children):
        raise TreeError("graft map must be total on the children of i")
    for target in f.values():
        if type(target) is not int or not 1 <= target <= m:
            raise TreeError(f"graft target {target!r} out of range for arity {m}")
    return graft([f[k] for k in children])


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

    Zero coefficients are dropped eagerly, so equality of sums is
    equality of their term maps.  Instances are immutable.
    """

    __slots__ = ("_arity", "_terms")

    def __init__(
        self, arity: int, terms: Mapping[LabelledRootedTree, int] | None = None
    ):
        self._arity = _arity(arity, 1, "a sum has arity at least 1")
        self._terms: dict[LabelledRootedTree, int] = {}
        self._merge((terms or {}).items())

    def _merge(self, pairs) -> "TreeSum":
        """Add (tree, coefficient) pairs into this new sum; a zero total drops its term."""
        terms, arity = self._terms, self._arity
        for tree, coeff in pairs:
            if len(_standard(tree)) != arity:
                raise TreeError(f"term {tree} has arity {tree.n}, expected {arity}")
            if type(coeff) is not int:
                raise TreeError(f"coefficient {coeff!r} of {tree} is not an integer")
            terms[tree] = total = terms.get(tree, 0) + coeff
            if not total:
                del terms[tree]
        return self

    @classmethod
    def single(cls, tree: LabelledRootedTree, coeff: int = 1) -> "TreeSum":
        return cls(len(_standard(tree)), {tree: coeff})

    @property
    def arity(self) -> int:
        return self._arity

    def terms(self) -> list[tuple[LabelledRootedTree, int]]:
        """Terms sorted by canonical tree string."""
        return sorted(self._terms.items(), key=lambda item: str(item[0]))

    def trees(self) -> set[LabelledRootedTree]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "TreeSum") -> "TreeSum":
        if not isinstance(other, TreeSum):
            raise TreeError(f"cannot add {other!r} to a sum of trees")
        if other._arity != self._arity:
            raise TreeError("cannot add sums of different arities")
        return TreeSum(self._arity, self._terms)._merge(other._terms.items())

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
        return TreeSum(self._arity)._merge((fn(t), c) for t, c in self._terms.items())

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


def compose_pl(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> TreeSum:
    """Sum of graft compositions over all graft maps, each with coefficient 1."""
    return compose_pl_linear(TreeSum.single(tree), i, TreeSum.single(inserted))


def compose_pl_linear(a: TreeSum, i: int, b: TreeSum) -> TreeSum:
    """Bilinear extension of :func:`compose_pl` to formal sums."""
    if not (isinstance(a, TreeSum) and isinstance(b, TreeSum)):
        raise TreeError(f"linear composition takes two TreeSums, got {a!r} and {b!r}")
    _check_compose_args(i, a.arity)
    out = TreeSum(a.arity + b.arity - 1)
    for t, ct in a._terms.items():
        for s, cs in b._terms.items():
            graft, children = _graft_kernel(t, i, s)
            maps = itertools.product(range(1, s.n + 1), repeat=len(children))
            out._merge(zip(map(graft, maps), itertools.repeat(ct * cs)))
    return out


def min_term(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> LabelledRootedTree:
    """The unique degree-minimal term of the composition (graft map f_min_map)."""
    graft, children = _graft_kernel(tree, i, inserted)
    return graft([1 if k < i else inserted.n for k in children])


def max_term(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> LabelledRootedTree:
    """The unique degree-maximal term of the composition (graft map f_max_map)."""
    graft, children = _graft_kernel(tree, i, inserted)
    return graft([inserted.n if k < i else 1 for k in children])


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
    failures: list[str] = []
    basis = [t for n in range(1, max_arity + 1) for t in enumerate_trees(n)]
    for t in basis:
        for i in range(1, t.n + 1):
            for s in basis:
                lo, hi = degree_bounds(t, i, s)
                graft, children = _graft_kernel(t, i, s)
                maps = itertools.product(range(1, s.n + 1), repeat=len(children))
                degs = [degree(graft(f)) for f in maps]
                # one graft map at least, so lo == hi forces a single degree
                ok = (
                    min(degs) == lo
                    and max(degs) == hi
                    and degs.count(lo) == 1
                    and degs.count(hi) == 1
                    and degree(min_term(t, i, s)) == lo
                    and degree(max_term(t, i, s)) == hi
                )
                if not ok:
                    failures.append(
                        f"T={t} i={i} S={s} bounds=({lo},{hi}) degrees={sorted(degs)}"
                    )
    return failures


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
