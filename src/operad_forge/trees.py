"""Labelled rooted trees: parsing, enumeration, and structural queries.

Trees here are non-planar: a tree is entirely determined by its parent
map, and two trees are equal exactly when their parent maps agree.
The canonical text form ``label(children,...)`` lists children in
ascending label order, so canonical strings are equal iff the trees are.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping, Sequence


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

    __slots__ = ("_key", "_par")

    def __init__(self, parent: Mapping[int, int | None]):
        if not parent:
            raise TreeError("a tree needs at least one vertex")
        if type(parent) is not dict:  # restrict builds dicts on the hot path; an ABC check is slow
            _expect(parent, Mapping)
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

    @classmethod
    def _from_par(cls, par: tuple[int, ...]) -> "LabelledRootedTree":
        # internal fast path: the caller guarantees a valid parent tuple
        tree = cls.__new__(cls)
        tree._key = tree._par = par
        return tree

    @property
    def n(self) -> int:
        """Number of vertices (the arity of the tree as an operad element)."""
        return len(self._key)

    @property
    def root(self) -> int:
        if self._par is not None:
            return self._par.index(0) + 1
        return next(v for v, p in self._key if p is None)

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
        stack: list[int | str] = [self.root]
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
    s = _expect(text, str).strip()
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
            raise TreeError(f"expected a label at position {start} in {_shown(text)}")
        if s[start] == "0" and pos - start > 1:
            raise TreeError(f"leading zero at position {start} in {_shown(text)}")
        # a label is at most n <= len(s), and int() refuses a very long one
        if pos - start > len(str(len(s))):
            raise TreeError(f"label too long at position {start} in {_shown(text)}")
        label = int(s[start:pos])
        if label in parent:
            raise TreeError(f"duplicate label {label} in {_shown(text)}")
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
                raise TreeError(f"expected ')' at position {pos} in {_shown(text)}")
            pos += 1
            open_labels.pop()
        else:
            break
    if pos != len(s):
        raise TreeError(f"trailing text at position {pos} in {_shown(text)}")
    if sorted(parent) != list(range(1, len(parent) + 1)):
        raise TreeError(f"labels must be exactly 1..{len(parent)} in {_shown(text)}")
    # the parse proved one root (the first label read), connectivity and labels 1..n
    par = tuple(parent[v] or 0 for v in range(1, len(parent) + 1))
    return LabelledRootedTree._from_par(par)


def _expect(obj, cls=LabelledRootedTree, error=TreeError):
    # the one type check on an argument in every layer: obj itself when it is a cls
    if not isinstance(obj, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise error(f"{_shown(obj)} is not {article} {cls.__name__}")
    return obj


def _shown(obj) -> str:
    # an argument echoed in an error message: its ASCII repr (a byte a character), clipped to 60
    text = ascii(obj)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def _position(x: int, n: int, what: str = "position") -> int:
    # the one range check on a position, a root label or a graft target: x itself in 1..n
    if type(x) is not int or type(n) is not int or not 1 <= x <= n:
        raise TreeError(f"{what} {x!r} out of range for arity {n!r}")
    return x


def _signed_sum(parts: Iterable[str]) -> str:
    # the one printer of a sum of signed term texts: "a + b - c", or "0" for no terms;
    # a term text holds no space, so " + -" only ever stands before a negative term
    return " + ".join(parts).replace(" + -", " - ") or "0"


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
    except (ValueError, TypeError, RecursionError) as exc:  # bad text, no text, too deep
        raise TreeError(f"invalid tree JSON: {exc}") from None
    if not isinstance(data, dict) or not {"n", "parent"} <= data.keys():
        raise TreeError('tree JSON must be an object with "n" and "parent"')
    n, parents = data["n"], data["parent"]
    if type(n) is not int or not isinstance(parents, list) or set(map(type, parents)) - {int}:
        raise TreeError('"n" must be an integer and "parent" a list of integers')
    if len(parents) != n:
        raise TreeError("parent array length disagrees with n")
    return LabelledRootedTree({v: p or None for v, p in enumerate(parents, 1)})


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


def _reroot(par: list[int], root: int) -> tuple[int, ...]:
    # the parent tuple of par rooted at root: reverse the one path from root up to the old root
    out = par[:]
    v, p = root, 0
    while v:
        out[v - 1], v, p = p, par[v - 1], v
    return tuple(out)


def _free_tree(rank: int, n: int) -> list[int]:
    # the free tree whose Prüfer sequence is rank's base-n digits plus 1, rooted at n
    seq = []
    for _ in range(n - 2):
        rank, digit = divmod(rank, n)
        seq.append(digit + 1)
    seq.reverse()
    return _prufer_parents(seq, n)


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
        yield LabelledRootedTree._from_par((0,))
        return
    for rank in range(n ** (n - 2)):
        par = _free_tree(rank, n)
        for root in range(1, n + 1):
            yield LabelledRootedTree._from_par(_reroot(par, root))


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
    try:
        kept = set(_expect(keep, Iterable))
    except TypeError:
        raise TreeError(f"labels to keep must be integers, got {keep!r}") from None
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
    _expect(tree).parent_of(c)  # raises TreeError for an unknown label
    parent: dict[int, int | None] = {c: None}
    stack = [c]
    while stack:
        v = stack.pop()
        for w in tree.children(v):
            parent[w] = v
            stack.append(w)
    return LabelledRootedTree(parent)


def _relabel(tree: LabelledRootedTree, phi: Mapping[int, int]) -> LabelledRootedTree:
    # the one relabelling: every label v renamed phi[v]
    return LabelledRootedTree({phi[v]: phi[p] if p else None for v, p in tree._pairs()})


def order_relabel(tree: LabelledRootedTree, target: Iterable[int]) -> LabelledRootedTree:
    """Relabel by the unique order-preserving bijection onto ``target``."""
    source, target = _expect(tree).labels, list(_expect(target, Iterable))
    if any(type(v) is not int for v in target):
        raise TreeError(f"target labels must be integers, got {target}")
    tgt = sorted(set(target))
    if len(tgt) != len(target) or len(tgt) != len(source):
        raise TreeError(f"target needs {len(source)} distinct labels, got {target}")
    return _relabel(tree, dict(zip(source, tgt)))


def act(sigma: Mapping[int, int], tree: LabelledRootedTree) -> LabelledRootedTree:
    """Permute the labels of a standard tree by sigma."""
    labels = list(range(1, len(_standard(tree)) + 1))
    ints = all(type(v) is type(w) is int for v, w in _expect(sigma, Mapping).items())
    if not ints or sorted(sigma) != labels or sorted(sigma.values()) != labels:
        raise TreeError("sigma is not a permutation of the label set")
    return _relabel(tree, sigma)


def gap(tree: LabelledRootedTree, i: int) -> int:
    """Count edges with neither endpoint equal to i that strictly straddle i."""
    _expect(tree).parent_of(i)  # raises TreeError for an unknown label
    count = 0
    for v, p in tree.edges():
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
    _position(s, m, "root label")
    k = _expect(tree).parent_of(i)
    if k is None:
        return 0
    return s - 1 if k < i else m - s
