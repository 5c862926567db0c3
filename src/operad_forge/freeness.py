"""Factorization of trees under the degree-maximal composition.

A tree is decomposable when some label interval [a, b] sits inside it
as the image of a non-trivial composition at position a; the witness
conditions below characterize that exactly.  Repeated splitting
factors any tree into indecomposable generators, recorded as a planar
operation tree, and evaluation maps operation trees back.  Evaluation
is injective (the operad is free on the indecomposables), which the
verifier checks by exhaustive enumeration at small arity.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from .trees import (
    LabelledRootedTree,
    TreeError,
    _arity,
    _expect,
    _free_tree,
    _reroot,
    _standard,
    restrict,
)
from .series import generator_series
from .sweep import _ENTRY_BYTES, _check_table_size, _sweep
from .set_operads import SET_COMPOSE, compose_max


class Witness(NamedTuple):
    """An interval [a, b] along which a tree splits, with block root c."""

    a: int
    b: int
    c: int


def _witness_at(tree: LabelledRootedTree, a: int, b: int) -> Optional[Witness]:
    # only a non-trivial interval: 1 <= a < b <= n, and not [1, n] itself
    n = len(tree._par)
    if not 1 <= a < b <= n or (a == 1 and b == n):
        return None
    # (i) the interval induces a single connected block, rooted at c
    block = restrict(tree, range(a, b + 1))
    if len(block) != 1:
        return None
    # (ii) a vertex outside the interval with its parent inside hangs off b
    # when it lies below a, and off a when it lies above b
    for v, p in enumerate(tree._par, 1):
        if a <= p <= b and not a <= v <= b and p != (b if v < a else a):
            return None
    return Witness(a, b, block[0].root)


def _scan(tree: LabelledRootedTree) -> Iterator[Witness]:
    # the non-trivial witnesses, each before any witness that contains it:
    # a contained interval either ends sooner or, ending at b, starts later
    n = len(_standard(tree))
    for b in range(2, n + 1):
        for a in range(b - 1, 0, -1):
            w = _witness_at(tree, a, b)
            if w is not None:
                yield w


def decomposition_witnesses(tree: LabelledRootedTree) -> list[Witness]:
    """All split witnesses, in lexicographic (a, b) order."""
    return sorted(_scan(tree))


def is_indecomposable(tree: LabelledRootedTree) -> bool:
    """True when no witness exists; only defined for arity >= 2."""
    _arity(len(_standard(tree)), 2, "generators have arity at least 2")
    return next(_scan(tree), None) is None


def split(
    tree: LabelledRootedTree, witness: Witness
) -> tuple[LabelledRootedTree, LabelledRootedTree]:
    """Invert a composition: contract the block [a, b] back to one vertex.

    Returns (outer, inner) with ``compose_max(outer, a, inner) == tree``.
    """
    par = _standard(tree)
    ints = isinstance(witness, tuple) and [type(x) for x in witness] == [int] * 3
    if not (ints and _witness_at(tree, *witness[:2]) == witness):
        raise TreeError(f"{witness!r} is not a witness for {tree}")
    a, b, c = witness
    d, width = a - 1, b - a
    # outer labels: below a unchanged, the block contracted to a, above b
    # shifted down; the contracted vertex takes the parent of c
    contracted = [p if p < a else max(a, p - width) for p in par]
    outer = contracted[:d] + [contracted[c - 1]] + contracted[b:]
    inner = [p - d if a <= p <= b else 0 for p in par[d:b]]
    return (
        LabelledRootedTree._from_par(tuple(outer)),
        LabelledRootedTree._from_par(tuple(inner)),
    )


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class OperationTree:
    """A planar word in the free operad: a generator with one slot per input.

    Each slot is either None (a plain input) or a nested OperationTree.
    Generators have arity >= 2, so the word is automatically reduced.
    Words compare and hash by their canonical text, so depth is unbounded.
    """

    node: LabelledRootedTree
    slots: tuple[Optional["OperationTree"], ...]
    arity: int = field(init=False)

    def __post_init__(self):
        n = len(_standard(self.node))
        try:
            object.__setattr__(self, "slots", tuple(self.slots))
        except TypeError:
            raise TreeError(f"slots {self.slots!r} are not a sequence") from None
        if len(self.slots) != n:
            raise TreeError(f"generator {self.node} needs {n} slots, got {len(self.slots)}")
        arity = 0
        for s in self.slots:
            if s is not None and not isinstance(s, OperationTree):
                raise TreeError(f"slot {s!r} is neither None nor an OperationTree")
            arity += 1 if s is None else s.arity
        object.__setattr__(self, "arity", arity)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperationTree):
            return NotImplemented
        return str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))

    def __repr__(self) -> str:
        return f"OperationTree({self!s})"

    def __str__(self) -> str:
        # a stack of pending words and punctuation, so depth is unbounded
        out: list[str] = []
        stack: list[OperationTree | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(str(item.node))
            if any(s is not None for s in item.slots):
                stack.append("]")
                for s in reversed(item.slots):
                    stack += ("_" if s is None else s, ", ")
                stack[-1] = "["  # the separator before the first slot
        return "".join(out)


def evaluate(
    word: OperationTree, compose: Callable = compose_max
) -> LabelledRootedTree:
    """Fold an operation tree bottom-up with the given set composition."""
    result = _expect(word, OperationTree).node
    # rightmost slot first, so earlier input positions stay put
    for idx in range(len(word.slots), 0, -1):
        slot = word.slots[idx - 1]
        if slot is not None:
            result = compose(result, idx, evaluate(slot, compose))
    return result


def factorize(tree: LabelledRootedTree) -> OperationTree:
    """Express a tree as an operation tree over indecomposable generators.

    Contracts one innermost witness block per step: a block holding no
    smaller witness is itself a generator, since a factored block
    ``o o_a' i`` would make ``(outer o_a o) o_(a+a'-1) i`` a smaller
    witness inside it.  The scan order is a tie-break only, since the
    full factorization is unique.
    """
    _arity(len(_standard(tree)), 2, "only trees of arity >= 2 factorize")
    slots = [None] * tree.n  # the word standing at each input of what is left
    while (w := next(_scan(tree), None)) is not None:
        tree, generator = split(tree, w)
        slots[w.a - 1 : w.b] = [OperationTree(generator, tuple(slots[w.a - 1 : w.b]))]
    return OperationTree(tree, tuple(slots))


def indecomposables(n: int) -> tuple[LabelledRootedTree, ...]:
    """All indecomposable trees of arity n, sorted by canonical string."""
    pars = _indecomposables(_arity(n, 2, "generators have arity at least 2"))
    return tuple(sorted(map(LabelledRootedTree._from_par, pars), key=str))


def _free_generators(par: list[int]) -> tuple[tuple[int, ...], ...]:
    # The generators among the rootings of a free tree (a parent list rooted
    # at n), as parent tuples.  [a, b] is connected, whatever the root, when
    # it holds b - a edges.  A boundary edge {u inside, v outside} is good
    # when v < a and u = b, or v > b and u = a; rooted at r, [a, b] is a
    # witness when every bad edge is the one towards r.  So a connected
    # non-trivial interval with no bad edge rules out every root, with one
    # bad edge (u, v) the roots on v's side, and with two or more none.
    n = len(par)
    nbrs = [[w for w in range(1, n + 1) if v == par[w - 1] or w == par[v - 1]] for v in range(n + 1)]
    below = [0] * (n + 1)  # the vertices under each vertex, as bits
    for v in range(1, n + 1):
        u = v
        while u:
            below[u] |= 1 << v
            u = par[u - 1]
    alive = (1 << n + 1) - 2  # the roots not yet ruled out, as bits 1..n
    for a in range(1, n):
        inner = 0  # the edges inside [a, b]
        for b in range(a + 1, n + (a > 1)):
            inner += sum(a <= w < b for w in nbrs[b])
            if inner < b - a:
                continue
            bad = [(u, v) for u in range(a, b + 1) for v in nbrs[u]
                   if not a <= v <= b and u != (b if v < a else a)]
            if not bad:
                return ()
            if len(bad) == 1:
                (u, v), = bad  # keep the roots on u's side
                alive &= below[u] if par[u - 1] == v else ~below[v]
    return tuple(_reroot(par, r) for r in range(1, n + 1) if alive >> r & 1)


@functools.lru_cache(maxsize=None)
def _indecomposables(n: int) -> tuple[tuple[int, ...], ...]:
    # in Prüfer-rank, then root order; the counts rise from arity 3, so the first too big refuses n
    _check_table_size((generator_series(k).coefficient(k) for k in range(2, n + 1)),
                      _ENTRY_BYTES["generator"], lambda c: f"arity {n} has at least {c} generators")
    shares = _sweep(range(n ** (n - 2)), lambda rank: _free_generators(_free_tree(rank, n)))
    return tuple(itertools.chain.from_iterable(shares))


# lru_cache hashes n before the body runs, so the cache sits on a helper behind the check
indecomposables.cache_clear = _indecomposables.cache_clear
indecomposables.cache_info = _indecomposables.cache_info


def count_indecomposables(n: int) -> int:
    return len(_indecomposables(_arity(n, 2, "generators have arity at least 2")))


def operation_trees(n: int) -> list[OperationTree]:
    """Every operation tree of total arity n over indecomposable generators.

    Deterministic order: by root generator arity, then generator, then
    slot arities lexicographically, then slot contents recursively.
    """
    if _arity(n) < 2:
        return []
    sizes = itertools.accumulate(k ** (k - 1) for k in range(2, n + 1))  # k^(k-1) words of arity k
    _check_table_size(sizes, _ENTRY_BYTES["word"],
                      lambda size: f"arity {n} needs a list of at least {size} words")
    generators = {k: indecomposables(k) for k in range(2, n + 1)}  # each arity's list read once
    levels: list[list[Optional[OperationTree]]] = [[], [None]]  # by total arity
    for total in range(2, n + 1):
        words = []
        for k in range(2, total + 1):
            for g in generators[k]:
                # lexicographic cut points give lexicographic slot arities
                for cuts in itertools.combinations(range(1, total), k - 1):
                    ends = (0, *cuts, total)
                    options = [levels[q - p] for p, q in itertools.pairwise(ends)]
                    words.extend(
                        OperationTree(g, combo)
                        for combo in itertools.product(*options)
                    )
        levels.append(words)
    return levels[n]


class FreenessReport(NamedTuple):
    ok: bool
    constructions: int
    distinct: int
    expected: int


def verify_freeness(n: int) -> FreenessReport:
    """Check that evaluation is a bijection onto all trees of arity n."""
    _arity(n, 2, "freeness is checked at arity at least 2")
    words = operation_trees(n)
    images = _sweep(words, lambda word: _standard(evaluate(word)))  # parent tuples pickle lighter
    distinct, expected = len(set(images)), n ** (n - 1)
    return FreenessReport(len(words) == distinct == expected, len(words), distinct, expected)


def find_collision(kind: str, n: int) -> Optional[tuple[OperationTree, OperationTree]]:
    """Two distinct operation trees with equal evaluation, if any exist.

    kind selects the set composition used for evaluation (min or nap;
    max never collides).  Returns the first collision in enumeration
    order, or None.
    """
    if type(kind) is not str or kind not in SET_COMPOSE:
        raise TreeError(f"unknown operad kind {kind!r}")
    _arity(n, 2, "collisions are searched at arity at least 2")
    compose, seen = SET_COMPOSE[kind], {}
    for word in operation_trees(n):  # one word at a time, so the search stops at its first hit
        if (first := seen.setdefault(evaluate(word, compose), word)) is not word:
            return first, word
    return None
