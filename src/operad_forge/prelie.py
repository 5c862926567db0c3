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
    act,
    degree,
    enumerate_trees,
    epsilon,
    gap,
    parse_tree,
)

GraftMap = Mapping[int, int]


def _check_compose_args(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> None:
    if not (tree.is_standard and inserted.is_standard):
        raise TreeError("composition is defined on standard trees")
    if not 1 <= i <= tree.n:
        raise TreeError(f"position {i} out of range for arity {tree.n}")


def _graft_kernel(tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree):
    """The terms of T o_i S, sharing what no graft map changes.

    Returns ``(graft, children)``: ``children`` lists the children of i
    in ascending order, and ``graft(targets)`` is the term whose graft
    map sends them to ``targets`` (trusted to lie in 1..m).  Each call
    patches only the children's slots of a base built once.
    """
    _check_compose_args(tree, i, inserted)
    par, ins = tree._par, inserted._par
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
    m = inserted.n
    graft, children = _graft_kernel(tree, i, inserted)
    if f.keys() != set(children):
        raise TreeError("graft map must be total on the children of i")
    for target in f.values():
        if not 1 <= target <= m:
            raise TreeError(f"graft target {target} out of range for arity {m}")
    return graft([f[k] for k in children])


def graft_maps(
    tree: LabelledRootedTree, i: int, m: int
) -> Iterator[dict[int, int]]:
    """All maps from the children of i into [m], lexicographic by child label."""
    children = tree.children(i)
    for targets in itertools.product(range(1, m + 1), repeat=len(children)):
        yield dict(zip(children, targets))


def f_min_map(tree: LabelledRootedTree, i: int, m: int) -> dict[int, int]:
    """Children below i regraft onto vertex 1, children above onto vertex m."""
    if not 1 <= i <= tree.n:
        raise TreeError(f"position {i} out of range for arity {tree.n}")
    return {k: (1 if k < i else m) for k in tree.children(i)}


def f_max_map(tree: LabelledRootedTree, i: int, m: int) -> dict[int, int]:
    """Children below i regraft onto vertex m, children above onto vertex 1."""
    if not 1 <= i <= tree.n:
        raise TreeError(f"position {i} out of range for arity {tree.n}")
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
        self._arity = arity
        clean: dict[LabelledRootedTree, int] = {}
        for tree, coeff in (terms or {}).items():
            if tree.n != arity:
                raise TreeError(
                    f"term {tree} has arity {tree.n}, expected {arity}"
                )
            if coeff:
                clean[tree] = coeff
        self._terms = clean

    @classmethod
    def single(cls, tree: LabelledRootedTree, coeff: int = 1) -> "TreeSum":
        return cls(tree.n, {tree: coeff})

    @property
    def arity(self) -> int:
        return self._arity

    def coefficient(self, tree: LabelledRootedTree) -> int:
        return self._terms.get(tree, 0)

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
        if other._arity != self._arity:
            raise TreeError("cannot add sums of different arities")
        merged = dict(self._terms)
        for tree, coeff in other._terms.items():
            merged[tree] = merged.get(tree, 0) + coeff
        return TreeSum(self._arity, merged)

    def __neg__(self) -> "TreeSum":
        return TreeSum(self._arity, {t: -c for t, c in self._terms.items()})

    def __sub__(self, other: "TreeSum") -> "TreeSum":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "TreeSum":
        return TreeSum(self._arity, {t: scalar * c for t, c in self._terms.items()})

    def map_trees(self, fn) -> "TreeSum":
        """Apply fn to each basis tree, merging coefficients on collisions."""
        merged: dict[LabelledRootedTree, int] = {}
        for tree, coeff in self._terms.items():
            image = fn(tree)
            merged[image] = merged.get(image, 0) + coeff
        return TreeSum(self._arity, merged)

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


def parse_tree_sum(text: str) -> TreeSum:
    """Inverse of ``str(TreeSum)`` for nonzero sums; "0" needs an arity, so rejects."""
    s = text.strip()
    if not s or s == "0":
        raise TreeError("cannot parse a zero sum without an arity")
    # split on " + " / " - " separators between terms
    chunks: list[tuple[int, str]] = []
    sign = 1
    buf = s
    while buf:
        plus = buf.find(" + ")
        minus = buf.find(" - ")
        cut = min(p for p in (plus, minus) if p >= 0) if max(plus, minus) >= 0 else -1
        if cut == -1:
            chunks.append((sign, buf))
            break
        chunks.append((sign, buf[:cut]))
        sign = 1 if buf[cut : cut + 3] == " + " else -1
        buf = buf[cut + 3 :]
    terms: dict[LabelledRootedTree, int] = {}
    arity = None
    for sgn, chunk in chunks:
        coeff_text, _, tree_text = chunk.partition("*")
        if not tree_text:
            raise TreeError(f"malformed term {chunk!r}")
        tree = parse_tree(tree_text)
        if arity is None:
            arity = tree.n
        terms[tree] = terms.get(tree, 0) + sgn * int(coeff_text)
    assert arity is not None
    return TreeSum(arity, terms)


def compose_pl(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> TreeSum:
    """Sum of graft compositions over all graft maps, each with coefficient 1."""
    return compose_pl_linear(TreeSum.single(tree), i, TreeSum.single(inserted))


def compose_pl_linear(a: TreeSum, i: int, b: TreeSum) -> TreeSum:
    """Bilinear extension of :func:`compose_pl` to formal sums."""
    terms: dict[LabelledRootedTree, int] = {}
    for t, ct in a._terms.items():
        for s, cs in b._terms.items():
            graft, children = _graft_kernel(t, i, s)
            maps = itertools.product(range(1, s.n + 1), repeat=len(children))
            for term in map(graft, maps):
                terms[term] = terms.get(term, 0) + ct * cs
    return TreeSum(a.arity + b.arity - 1, terms)


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
    _check_compose_args(tree, i, inserted)
    m = inserted.n
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
    failures: list[str] = []
    basis = {n: list(enumerate_trees(n)) for n in range(1, max_arity + 1)}
    for n in range(1, max_arity + 1):
        for t in basis[n]:
            for i in range(1, n + 1):
                for m in range(1, max_arity + 1):
                    for s in basis[m]:
                        lo, hi = degree_bounds(t, i, s)
                        graft, children = _graft_kernel(t, i, s)
                        maps = itertools.product(range(1, m + 1), repeat=len(children))
                        degs = [degree(graft(f)) for f in maps]
                        ok = (
                            min(degs) == lo
                            and max(degs) == hi
                            and degs.count(lo) == 1
                            and degs.count(hi) == 1
                            and degree(min_term(t, i, s)) == lo
                            and degree(max_term(t, i, s)) == hi
                        )
                        # a degenerate spectrum is fine only when lo == hi
                        if lo == hi:
                            ok = len(degs) == 1 and degs[0] == lo
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
