"""Grafting composition of labelled rooted trees and its linear span.

The composition of two trees at a vertex is a sum over all ways of
regrafting the displaced children onto the inserted tree; each choice
is a graft map.  Sums live in :class:`TreeSum`, formal integer
combinations of same-arity trees.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping

from .trees import (
    LabelledRootedTree,
    TreeError,
    _arity,
    _degree,
    _expect,
    _position,
    _signed_sum,
    _standard,
    act,
    degree,
    enumerate_trees,
    epsilon,
    gap,
    parse_tree,
)
from .sweep import _ENTRY_BYTES, _check_table_size, _sweep

GraftMap = Mapping[int, int]


def _wrong_arity(ins: tuple[int, ...], m: int) -> TreeError:
    # the error of a stage applied to the parent tuple of an inserted tree of arity other than m
    tree = LabelledRootedTree._from_par(ins)
    return TreeError(f"inserted tree {tree} has arity {tree.n}, expected {m}")


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
    _position(i, len(par))
    _arity(m, 1, "the inserted tree has arity at least 1")
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
            raise _wrong_arity(ins, m)
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
    if _expect(f, Mapping).keys() != set(children):
        raise TreeError("graft map must be total on the children of i")
    for target in f.values():
        _position(target, m, "graft target")
    head, tail = ends([f[k] for k in children])
    return LabelledRootedTree._from_par(head + splice(ins) + tail)


def graft_maps(tree: LabelledRootedTree, i: int, m: int) -> Iterator[dict[int, int]]:
    """All maps from the children of i into [m], lexicographic by child label."""
    children = _expect(tree).children(i)
    _arity(m, 1, "the inserted tree has arity at least 1")
    for targets in itertools.product(range(1, m + 1), repeat=len(children)):
        yield dict(zip(children, targets))


def f_min_map(tree: LabelledRootedTree, i: int, m: int) -> dict[int, int]:
    """Children below i regraft onto vertex 1, children above onto vertex m."""
    _arity(m, 1, "the inserted tree has arity at least 1")
    return {k: (1 if k < i else m) for k in _expect(tree).children(i)}


def f_max_map(tree: LabelledRootedTree, i: int, m: int) -> dict[int, int]:
    """Children below i regraft onto vertex m, children above onto vertex 1."""
    _arity(m, 1, "the inserted tree has arity at least 1")
    return {k: (m if k < i else 1) for k in _expect(tree).children(i)}


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
        if terms is not None:
            self._merge((_standard(t), c) for t, c in _expect(terms, Mapping).items())

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
    def single(cls, tree: LabelledRootedTree) -> "TreeSum":
        par = _standard(tree)
        return cls(len(par))._merge([(par, 1)])

    @property
    def arity(self) -> int:
        return self._arity

    def _listing(self) -> list[tuple[str, tuple[int, ...], int]]:
        return sorted((str(LabelledRootedTree._from_par(p)), p, c) for p, c in self._terms.items())

    def terms(self) -> list[tuple[LabelledRootedTree, int]]:
        """Terms sorted by canonical tree string."""
        return [(LabelledRootedTree._from_par(p), c) for _, p, c in self._listing()]

    def trees(self) -> set[LabelledRootedTree]:
        return set(map(LabelledRootedTree._from_par, self._terms))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "TreeSum") -> "TreeSum":
        if _expect(other, TreeSum)._arity != self._arity:
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
        return _signed_sum(f"{coeff}*{text}" for text, _, coeff in self._listing())

    def __repr__(self) -> str:
        return f"TreeSum({self!s})"


def compose_pl(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> TreeSum:
    """Sum of graft compositions over all graft maps, each with coefficient 1."""
    return compose_pl_linear(TreeSum.single(tree), i, TreeSum.single(inserted))


def _pl_at(a: TreeSum, i: int, m: int):
    # compose_pl_linear staged: per term of a, one kernel and T's part for every graft map
    _position(i, _expect(a, TreeSum).arity)
    _arity(m, 1, "the inserted tree has arity at least 1")  # a zero sum builds no kernel to check it
    arity, groups = a.arity + m - 1, {}
    for t, ct in a._terms.items():
        children, ends, splice = _graft_kernel(t, i, m)
        maps = itertools.product(range(1, m + 1), repeat=len(children))
        # terms with one parent of i hang S's root on one vertex, so they share S's spliced part
        group = groups.setdefault((t[i - 1], ct), (splice, []))
        group[1].extend(map(ends, maps))

    def at(b: TreeSum) -> TreeSum:
        if _expect(b, TreeSum).arity != m:
            raise TreeError(f"linear composition at arity {m} takes a TreeSum of it, got {b!r}")
        out = TreeSum(arity)
        # T o_i S with a graft map determines T, S and the map, so no two terms meet
        # and every coefficient is a product of nonzero ints: nothing to merge
        terms = out._terms
        for (_, ct), (splice, pairs) in groups.items():
            for s, cs in b._terms.items():
                mid = splice(s)
                terms.update(dict.fromkeys([head + mid + tail for head, tail in pairs], ct * cs))
        return out

    return at


def compose_pl_linear(a: TreeSum, i: int, b: TreeSum) -> TreeSum:
    """Bilinear extension of :func:`compose_pl` to formal sums: its stage applied once."""
    m = _expect(b, TreeSum).arity

    def sizes(total=0):  # each t of a and s of b give a term per map of i's children into [m],
        for t in _expect(a, TreeSum)._terms:  # so t's count grows one child of i at a time
            for k in range(t.count(i) + 1):
                yield total + len(b) * m ** k
            total += len(b) * m ** k

    _check_table_size(sizes(), _ENTRY_BYTES["term"],
                      lambda size: f"the composition has at least {size} terms")
    return _pl_at(a, i, m)(b)


def _one_map_at(par: tuple[int, ...], i: int, m: int, below: int, above: int):
    # a one-map composition staged on tuples: i's children below i onto below, the rest onto above
    children, ends, splice = _graft_kernel(par, i, m)
    head, tail = ends([below if k < i else above for k in children])
    return lambda ins: head + splice(ins) + tail


def _applied(stage, tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree):
    # a tuple stage applied once to checked trees, S checked first
    ins = _standard(inserted)
    return stage(_standard(tree), i, len(ins))(ins)


def min_term(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> LabelledRootedTree:
    """The unique degree-minimal term of the composition (graft map f_min_map)."""
    return LabelledRootedTree._from_par(_applied(min_term.at, tree, i, inserted))


def max_term(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> LabelledRootedTree:
    """The unique degree-maximal term of the composition (graft map f_max_map)."""
    return LabelledRootedTree._from_par(_applied(max_term.at, tree, i, inserted))


compose_pl_linear.at = _pl_at
min_term.at = lambda par, i, m: _one_map_at(par, i, m, 1, m)
max_term.at = lambda par, i, m: _one_map_at(par, i, m, m, 1)


def _bounds_at(par: tuple[int, ...], i: int, m: int):
    # degree_bounds staged on tuples: T's share of lo, the spread hi - lo and epsilon per root, once
    _position(i, len(par))
    _arity(m, 1, "the inserted tree has arity at least 1")
    tree = LabelledRootedTree._from_par(par)
    base = degree(tree) + gap(tree, i) * (m - 1)
    spread = len(tree.children(i)) * (m - 1)
    eps = [epsilon(tree, i, m, r) for r in range(1, m + 1)]

    def at(ins: tuple[int, ...]) -> tuple[int, int]:
        if len(ins) != m:
            raise _wrong_arity(ins, m)
        lo = base + _degree(enumerate(ins, 1)) + eps[ins.index(0)]
        return lo, lo + spread

    return at


def degree_bounds(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> tuple[int, int]:
    """Exact lower and upper bounds for term degrees of the composition: its stage applied once."""
    _position(i, len(_standard(tree)))  # T and i are checked before S is read
    return _applied(degree_bounds.at, tree, i, inserted)


degree_bounds.at = _bounds_at


def check_extremal_terms(max_arity: int) -> list[str]:
    """Verify min/max uniqueness and bound attainment over small arities.

    For every (T, i, S) with arities up to max_arity, the degrees of the
    composition terms must attain the exact bounds, each at exactly one
    graft map, namely the extremal maps.  Returns failure descriptions.
    """
    _arity(max_arity, 2, "max_arity must be at least 2")
    arities = range(1, max_arity + 1)
    _check_table_size(itertools.accumulate(n ** n for n in arities), _ENTRY_BYTES["case"],
                      lambda size: f"max_arity {max_arity} checks at least {size} (T, i) cases")
    basis = {m: [t._par for t in enumerate_trees(m)] for m in arities}

    def extremal(item) -> list[str]:
        t, i = item  # T's parent tuple; every S, term and extremal tree below is one too
        failures: list[str] = []
        for m in arities:  # the stages and T's part of every term degree once per (T, i, m)
            children, ends, splice = _graft_kernel(t, i, m)
            bounds_at = degree_bounds.at(t, i, m)
            lo_at, hi_at = min_term.at(t, i, m), max_term.at(t, i, m)
            # a term's parent tuple is head + splice(S) + tail, at positions 1.., i.. and i + m..,
            # so its degree is T's part, fixed per graft map, plus S's part, fixed per S
            maps = itertools.product(range(1, m + 1), repeat=len(children))
            outer = [
                _degree(enumerate(head, 1)) + _degree(enumerate(tail, i + m))
                for head, tail in map(ends, maps)
            ]
            least, most = min(outer), max(outer)
            # one graft map at least, so lo == hi forces a single degree
            unique = outer.count(least) == 1 and outer.count(most) == 1
            for s in basis[m]:
                lo, hi = bounds_at(s)
                mid = _degree(enumerate(splice(s), i))
                ok = (
                    least + mid == lo
                    and most + mid == hi
                    and unique
                    and _degree(enumerate(lo_at(s), 1)) == lo
                    and _degree(enumerate(hi_at(s), 1)) == hi
                )
                if not ok:
                    degs = sorted([d + mid for d in outer])
                    shown_t, shown_s = map(LabelledRootedTree._from_par, (t, s))
                    failures.append(
                        f"T={shown_t} i={i} S={shown_s} bounds=({lo},{hi}) degrees={degs}"
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
