"""Set-level compositions on labelled rooted trees and axiom checking.

Three deterministic graft-map choices each make the collection of
labelled rooted trees into a non-symmetric operad: regrafting extremal
by label (max / min) or always onto the root of the inserted tree (nap).
The max and min compositions are the extremal terms of the grafting
sum, defined with their graft maps in :mod:`prelie`.  The checker
verifies the sequential and parallel associativity axioms and both unit
laws exhaustively over small arities, for these three set operads and
for the full linearized composition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .trees import LabelledRootedTree, TreeError, _arity, _position, _standard, enumerate_trees
from .sweep import _sweep
from .prelie import (
    TreeSum,
    _graft_kernel,
    compose_pl_linear,
    graft_compose,
    max_term,
    min_term,
)

KINDS = ("max", "min", "nap", "pl")


def f_nap_map(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> dict[int, int]:
    """Every displaced child regrafts onto the root of the inserted tree."""
    _position(i, len(_standard(tree)))
    _standard(inserted)
    return {k: inserted.root for k in tree.children(i)}


compose_max = max_term
compose_min = min_term


def compose_nap(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> LabelledRootedTree:
    return graft_compose(tree, i, inserted, f_nap_map(tree, i, inserted))


def _nap_at(tree: LabelledRootedTree, i: int, m: int):
    # compose_nap staged: T's part once for each root S may have, all of i's children onto it
    children, ends, splice = _graft_kernel(_standard(tree), i, m)
    rooted_at = [ends([r] * len(children)) for r in range(1, m + 1)]

    def at(inserted: LabelledRootedTree) -> LabelledRootedTree:
        ins = _standard(inserted)
        mid = splice(ins)  # checks S's arity before its root picks T's part
        head, tail = rooted_at[ins.index(0)]
        return LabelledRootedTree._from_par(head + mid + tail)

    return at


compose_nap.at = _nap_at


SET_COMPOSE: dict[str, Callable] = {
    "max": compose_max,
    "min": compose_min,
    "nap": compose_nap,
}


@dataclass(frozen=True)
class Violation:
    axiom: str  # seq | par | unitL | unitR
    a: str
    b: str
    c: str
    i: int
    j: int
    lhs: str
    rhs: str

    def __str__(self) -> str:
        return (
            f"axiom={self.axiom} a={self.a} b={self.b} c={self.c} "
            f"i={self.i} j={self.j} lhs={self.lhs} rhs={self.rhs}"
        )


def check_axioms(kind: str, max_arity: int) -> list[Violation]:
    """Exhaustively verify the operad axioms over all trees up to max_arity.

    Returns the (hopefully empty) list of violated instances.  kind is
    one of max, min, nap, or pl for the linearized composition.
    """
    if kind not in KINDS:
        raise TreeError(f"unknown operad kind {kind!r}")
    _arity(max_arity, 2, "max_arity must be at least 2")

    stage = compose_pl_linear.at if kind == "pl" else SET_COMPOSE[kind].at
    lift = TreeSum.single if kind == "pl" else lambda t: t

    arities = range(1, max_arity + 1)
    basis = {n: [lift(t) for t in enumerate_trees(n)] for n in arities}
    # every composition of two basis elements, computed once: at[x, y][i - 1]
    at = {
        (x, y): [stage(x, i, m)(y) for i in range(1, n + 1)]
        for n in arities for x in basis[n] for m in arities for y in basis[m]
    }
    unit = basis[1][0]

    def check(found, axiom, a, b, c, i, j, lhs, rhs) -> None:
        if lhs != rhs:
            found.append(
                Violation(axiom, str(a), str(b), str(c), i, j, str(lhs), str(rhs))
            )

    def associativity(item) -> list[Violation]:
        # sequential and parallel, for one a and every b of arity m and c of arity ell
        n, m, ell, a = item
        found: list[Violation] = []
        # no stage depends on b: a o_i x for x = b o_j c, and (a o_j c) o_{i+ell-1} x, j < i
        rhs_at = [stage(a, i, m + ell - 1) for i in range(1, n + 1)]
        par_at = [
            [[stage(ac, i + ell - 1, m) for ac in at[a, c][: i - 1]] for i in range(1, n + 1)]
            for c in basis[ell]
        ]
        for b in basis[m]:
            ab_at = at[a, b]
            # no stage depends on c: (a o_i b) o_k c, k < i parallel and the others sequential
            lhs_at = [
                [stage(ab_at[i - 1], k, ell) for k in range(1, i + m)] for i in range(1, n + 1)
            ]
            for c, par_c in zip(basis[ell], par_at):
                bc_at = at[b, c]
                for i in range(1, n + 1):
                    lhs_i, rhs_i, par_i = lhs_at[i - 1], rhs_at[i - 1], par_c[i - 1]
                    for j in range(1, m + 1):
                        check(found, "seq", a, b, c, i, j, lhs_i[j + i - 2](c), rhs_i(bc_at[j - 1]))
                    for j in range(1, i):
                        check(found, "par", a, b, c, i, j, lhs_i[j - 1](c), par_i[j - 1](b))
        return found

    violations: list[Violation] = []
    for n in arities:
        for a in basis[n]:
            check(violations, "unitL", a, "1", "-", 1, 0, at[unit, a][0], a)
            for i in range(1, n + 1):
                check(violations, "unitR", a, "1", "-", i, 0, at[a, unit][i - 1], a)
    items = [(n, m, ell, a) for n, m, ell in itertools.product(arities, repeat=3) for a in basis[n]]
    for found in _sweep(items, associativity):
        violations += found
    return violations
