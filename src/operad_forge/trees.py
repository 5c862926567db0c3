"""Labelled rooted trees: parsing, enumeration, and structural queries.

Trees here are non-planar: a tree is entirely determined by its parent
map, and two trees are equal exactly when their parent maps agree.
The canonical text form ``label(children,...)`` lists children in
ascending label order, so canonical strings are equal iff the trees are.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Iterator, Mapping, Sequence


class TreeError(ValueError):
    """Malformed tree text or an invalid structural argument."""


class LabelledRootedTree:
    """An immutable rooted tree with distinct positive integer labels.

    The usual case is a *standard* tree whose labels are exactly
    ``{1..n}``; restriction and subtree extraction produce trees over
    arbitrary label subsets, which are re-standardized only through
    :func:`order_relabel`.

    A standard tree is keyed by its parent tuple (``par[v - 1]`` is the
    parent of v, 0 marks the root), any other by its sorted items.
    """

    __slots__ = ("_key", "_par", "_root")

    def __init__(self, parent: Mapping[int, int | None]):
        if not parent:
            raise TreeError("a tree needs at least one vertex")
        roots = [v for v, p in parent.items() if p is None]
        if len(roots) != 1:
            raise TreeError(f"expected exactly one root, found {len(roots)}")
        for v, p in parent.items():
            if type(v) is not int or v < 1:
                raise TreeError(f"bad label {v!r}: labels are positive integers")
            if p is not None and (type(p) is not int or p not in parent):
                raise TreeError(f"vertex {v} has parent {p} outside the label set")
        # connectivity: every vertex must reach the root along parent links
        seen = {roots[0]}
        for v in parent:
            path = []
            while v not in seen:
                path.append(v)
                v = parent[v]  # type: ignore[assignment]
                if v is None or len(path) > len(parent):
                    raise TreeError("parent links do not reach the root")
            seen.update(path)
        n = len(parent)
        # n distinct positive labels are 1..n exactly when the largest is n
        if max(parent) == n:
            self._key = self._par = tuple(parent[v] or 0 for v in range(1, n + 1))
        else:
            self._key = tuple(sorted(parent.items()))
            self._par = None
        self._root = roots[0]

    @classmethod
    def _from_par(cls, par: tuple[int, ...], root: int | None = None) -> "LabelledRootedTree":
        # internal fast path: the caller guarantees a valid parent tuple
        # (and its root, when it passes one; else the one 0 in par marks it)
        tree = cls.__new__(cls)
        tree._key = tree._par = par
        tree._root = root or par.index(0) + 1
        return tree

    @property
    def n(self) -> int:
        """Number of vertices (the arity of the tree as an operad element)."""
        return len(self._key)

    @property
    def root(self) -> int:
        return self._root

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple([v for v, _ in self._pairs()])

    @property
    def is_standard(self) -> bool:
        """True when the label set is exactly 1..n."""
        return self._par is not None

    def parent_of(self, v: int) -> int | None:
        if type(v) is int:
            if self._par is None:
                parent = dict(self._key)
                if v in parent:
                    return parent[v]
            elif 0 < v <= len(self._par):  # par[-1] would answer for v = 0
                return self._par[v - 1] or None
        raise TreeError(f"no vertex labelled {v!r}")

    def _pairs(self) -> Iterable[tuple[int, int | None]]:
        # the (label, parent) pairs in label order, the root's parent falsy
        return self._key if self._par is None else enumerate(self._par, 1)

    def children(self, v: int) -> tuple[int, ...]:
        """The children of v in ascending label order."""
        self.parent_of(v)  # raises TreeError for an unknown label
        return tuple([w for w, p in self._pairs() if p == v])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (child, parent) pairs, ordered by child label."""
        return [(v, p) for v, p in self._pairs() if p]

    def parent_map(self) -> dict[int, int | None]:
        return {v: p or None for v, p in self._pairs()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelledRootedTree):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __str__(self) -> str:
        # edges come in child-label order, so every child list is ascending
        children: dict[int, list[int]] = {}
        for v, p in self.edges():
            children.setdefault(p, []).append(v)
        # a stack of pending labels and punctuation, so depth is unbounded
        out: list[str] = []
        stack: list[int | str] = [self._root]
        while stack:
            item = stack.pop()
            cs = children.get(item, ())
            if not cs:
                out.append(str(item))
                continue
            out.append(f"{item}(")
            stack.append(")")
            for c in reversed(cs[1:]):
                stack += (c, ",")
            stack.append(cs[0])
        return "".join(out)

    def __repr__(self) -> str:
        return f"LabelledRootedTree({self!s})"


def parse_tree(text: str) -> LabelledRootedTree:
    """Parse the canonical ``label(children,...)`` form into a standard tree.

    The label set must be exactly ``{1..n}``, written in ASCII decimal
    without leading zeros.
    """
    s = text.strip()
    if not s:
        raise TreeError("empty input")
    parent: dict[int, int | None] = {}
    open_labels: list[int] = []  # vertices whose child lists are being read
    pos = 0
    while True:
        start = pos
        while pos < len(s) and "0" <= s[pos] <= "9":
            pos += 1
        if start == pos:
            raise TreeError(f"expected a label at position {start} in {text!r}")
        if s[start] == "0" and pos - start > 1:
            raise TreeError(f"leading zero at position {start} in {text!r}")
        label = int(s[start:pos])
        if label in parent:
            raise TreeError(f"duplicate label {label} in {text!r}")
        parent[label] = open_labels[-1] if open_labels else None
        if pos < len(s) and s[pos] == "(":
            pos += 1
            open_labels.append(label)
            continue
        # after a finished subtree: a sibling follows, or child lists close
        while open_labels:
            if pos < len(s) and s[pos] == ",":
                pos += 1
                break
            if pos >= len(s) or s[pos] != ")":
                raise TreeError(f"expected ')' at position {pos} in {text!r}")
            pos += 1
            open_labels.pop()
        else:
            break
    if pos != len(s):
        raise TreeError(f"trailing text at position {pos} in {text!r}")
    if sorted(parent) != list(range(1, len(parent) + 1)):
        raise TreeError(f"labels must be exactly 1..{len(parent)} in {text!r}")
    # the parse proved one root (the first label read), connectivity and labels 1..n
    par = tuple(parent[v] or 0 for v in range(1, len(parent) + 1))
    return LabelledRootedTree._from_par(par, next(iter(parent)))


def _expect(obj, cls=LabelledRootedTree):
    # the one type check on an argument: obj itself when it is a cls
    if not isinstance(obj, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TreeError(f"{obj!r} is not {article} {cls.__name__}")
    return obj


def _standard(tree: LabelledRootedTree) -> tuple[int, ...]:
    # the one guard of every entry defined on standard trees only: their parent tuple
    if not isinstance(tree, LabelledRootedTree):
        _expect(tree)  # raises; tested here first, since this guard runs on every composition
    if tree._par is None:
        raise TreeError(f"{tree} is not standard: defined on standard trees only")
    return tree._par


def tree_to_json(tree: LabelledRootedTree) -> str:
    """JSON form ``{"n": n, "parent": [...]}`` with 0 marking the root."""
    return json.dumps({"n": len(par := _standard(tree)), "parent": list(par)})


def tree_from_json(text: str) -> LabelledRootedTree:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeError(f"invalid tree JSON: {exc}") from None
    if not isinstance(data, dict) or not {"n", "parent"} <= data.keys():
        raise TreeError('tree JSON must be an object with "n" and "parent"')
    n, parents = data["n"], data["parent"]
    if type(n) is not int or not isinstance(parents, list) or any(
        type(p) is not int for p in parents
    ):
        raise TreeError('"n" must be an integer and "parent" a list of integers')
    if len(parents) != n:
        raise TreeError("parent array length disagrees with n")
    return LabelledRootedTree(
        {v: (p if p != 0 else None) for v, p in zip(range(1, n + 1), parents)}
    )


def _prufer_parents(seq: Sequence[int], n: int) -> list[int]:
    # linear-time decode of a Prüfer sequence over [n]: each removed leaf
    # hangs off its neighbour and n is never removed, so the parent list
    # (par[v - 1] the parent of v, 0 the root) comes out rooted at n
    degree = [0] + [1] * n
    for v in seq:
        degree[v] += 1
    par = [0] * n
    leaf = idx = degree.index(1)
    for v in seq:
        par[leaf - 1] = v
        degree[v] -= 1
        if degree[v] == 1 and v < idx:
            leaf = v
        else:
            leaf = idx = degree.index(1, idx + 1)
    par[leaf - 1] = n
    return par


def _prufer_sequence(rank: int, n: int) -> tuple[int, ...]:
    # the rank-th sequence of itertools.product(range(1, n + 1), repeat=n - 2)
    return tuple(rank // n**k % n + 1 for k in range(n - 3, -1, -1))


def _reroot(par: list[int], root: int) -> LabelledRootedTree:
    # reverse the one path from root up to the current root
    out = par[:]
    v, p = root, 0
    while v:
        out[v - 1], v, p = p, par[v - 1], v
    return LabelledRootedTree._from_par(tuple(out), root)


def _rootings(seq: Sequence[int], n: int) -> list[LabelledRootedTree]:
    # the free tree with Prüfer sequence seq, rooted at 1, 2, ..., n in turn
    par = _prufer_parents(seq, n)
    return [_reroot(par, root) for root in range(1, n + 1)]


def _arity(n: int, least: int | None = None, message: str = "", error=TreeError) -> int:
    # the one check on a count (an arity or a series order) or a series index:
    # n itself once it is an int of at least `least`; a bool, float or str raises
    if type(n) is not int:
        raise error(f"a count or index must be an integer, got {n!r}")
    if least is not None and n < least:
        raise error(message)
    return n


def enumerate_trees(n: int) -> Iterator[LabelledRootedTree]:
    """Yield every standard tree on n vertices exactly once (n^(n-1) of them).

    Each Prüfer sequence decodes to one free tree, rooted at n, which is
    then re-rooted at every vertex: the stream is duplicate-free by
    construction.
    """
    if _arity(n, 1, "arity must be at least 1") == 1:
        yield LabelledRootedTree({1: None})
        return
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield from _rootings(seq, n)


def _degree(pairs: Iterable[tuple[int, int | None]]) -> int:
    # sum of |v - p| over (label, parent) pairs, the root's parent falsy
    return sum([abs(v - p) for v, p in pairs if p])


def degree(tree: LabelledRootedTree) -> int:
    """Sum of |a - b| over all edges {a, b}."""
    return _degree(_expect(tree)._pairs())


def restrict(tree: LabelledRootedTree, keep: Iterable[int]) -> tuple[LabelledRootedTree, ...]:
    """The components of the induced forest on the kept labels.

    Components are sorted by root label, and each is rooted at its
    vertex closest to the ambient root; labels are preserved.
    """
    _expect(tree)
    kept = set(keep)
    if not kept:
        raise TreeError("cannot restrict to an empty label set")
    # the induced parent map: a kept vertex whose parent is not kept is a root
    induced: dict[int, int | None] = {}
    for v in kept:
        p = tree.parent_of(v)
        induced[v] = p if p in kept else None
    maps: dict[int, dict[int, int | None]] = {}
    for v, p in induced.items():
        r = v
        while induced[r] is not None:
            r = induced[r]  # type: ignore[assignment]
        maps.setdefault(r, {})[v] = p
    return tuple(LabelledRootedTree(maps[r]) for r in sorted(maps))


def full_subtree(tree: LabelledRootedTree, c: int) -> LabelledRootedTree:
    """The subtree on all descendants of c (inclusive), rooted at c."""
    parent: dict[int, int | None] = {c: None}
    stack = [c]
    while stack:
        v = stack.pop()
        for w in tree.children(v):
            parent[w] = v
            stack.append(w)
    return LabelledRootedTree(parent)


def order_relabel(
    tree: LabelledRootedTree, target: Sequence[int]
) -> LabelledRootedTree:
    """Relabel by the unique order-preserving bijection onto ``target``."""
    source = _expect(tree).labels
    tgt = sorted(set(target))
    if len(tgt) != len(target) or len(tgt) != len(source):
        raise TreeError(f"target needs {len(source)} distinct labels, got {list(target)}")
    phi = dict(zip(source, tgt))
    return LabelledRootedTree(
        {phi[v]: (phi[p] if p is not None else None) for v, p in tree.parent_map().items()}
    )


def act(sigma: Mapping[int, int], tree: LabelledRootedTree) -> LabelledRootedTree:
    """Permute the labels of a standard tree by sigma."""
    labels = list(range(1, len(_standard(tree)) + 1))
    if sorted(sigma) != labels or sorted(sigma.values()) != labels:
        raise TreeError("sigma is not a permutation of the label set")
    return LabelledRootedTree(
        {sigma[v]: (sigma[p] if p is not None else None) for v, p in tree.parent_map().items()}
    )


def gap(tree: LabelledRootedTree, i: int) -> int:
    """Count edges with neither endpoint equal to i that strictly straddle i."""
    _expect(tree).parent_of(i)  # raises TreeError for an unknown label
    count = 0
    for v, p in tree.edges():
        if v == i or p == i:
            continue
        lo, hi = (v, p) if v < p else (p, v)
        if lo < i < hi:
            count += 1
    return count


def epsilon(tree: LabelledRootedTree, i: int, m: int, s: int) -> int:
    """Boundary contribution of the edge from i to its parent.

    Zero when i is the root; otherwise s-1 or m-s depending on whether
    the parent of i lies below or above i.  Here m is the arity of the
    inserted tree and s the label of its root.
    """
    if type(m) is not int or type(s) is not int or not 1 <= s <= m:
        raise TreeError(f"root label {s!r} out of range for arity {m!r}")
    k = tree.parent_of(i)
    if k is None:
        return 0
    return s - 1 if k < i else m - s
