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

from dataclasses import dataclass
from typing import Callable

from .trees import LabelledRootedTree, TreeError, enumerate_trees
from .prelie import (
    TreeSum,
    compose_pl_linear,
    f_max_map,  # noqa: F401 (re-exported)
    f_min_map,  # noqa: F401 (re-exported)
    graft_compose,
    max_term,
    min_term,
)

KINDS = ("max", "min", "nap", "pl")


def f_nap_map(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> dict[int, int]:
    """Every displaced child regrafts onto the root of the inserted tree."""
    if not 1 <= i <= tree.n:
        raise TreeError(f"position {i} out of range for arity {tree.n}")
    return {k: inserted.root for k in tree.children(i)}


compose_max = max_term
compose_min = min_term


def compose_nap(
    tree: LabelledRootedTree, i: int, inserted: LabelledRootedTree
) -> LabelledRootedTree:
    return graft_compose(tree, i, inserted, f_nap_map(tree, i, inserted))


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
    if max_arity < 2:
        raise TreeError("max_arity must be at least 2")

    if kind == "pl":
        compose, lift = compose_pl_linear, TreeSum.single
    else:
        compose, lift = SET_COMPOSE[kind], lambda t: t

    arities = range(1, max_arity + 1)
    basis = {n: [lift(t) for t in enumerate_trees(n)] for n in arities}
    # every composition of two basis elements, computed once: at[x, y][i - 1]
    at = {
        (x, y): [compose(x, i, y) for i in range(1, n + 1)]
        for n in arities for x in basis[n] for m in arities for y in basis[m]
    }
    unit = basis[1][0]
    violations: list[Violation] = []

    # unit laws
    for n in arities:
        for a in basis[n]:
            lhs = at[unit, a][0]
            if lhs != a:
                violations.append(
                    Violation("unitL", str(a), "1", "-", 1, 0, str(lhs), str(a))
                )
            for i in range(1, n + 1):
                lhs = at[a, unit][i - 1]
                if lhs != a:
                    violations.append(
                        Violation("unitR", str(a), "1", "-", i, 0, str(lhs), str(a))
                    )

    # associativity, sequential and parallel
    for n in arities:
        for m in arities:
            for ell in arities:
                for a in basis[n]:
                    for b in basis[m]:
                        ab_at = at[a, b]
                        for c in basis[ell]:
                            bc_at, ac_at = at[b, c], at[a, c]
                            for i in range(1, n + 1):
                                ab = ab_at[i - 1]
                                for j in range(1, m + 1):
                                    lhs = compose(ab, j + i - 1, c)
                                    rhs = compose(a, i, bc_at[j - 1])
                                    if lhs != rhs:
                                        violations.append(
                                            Violation(
                                                "seq", str(a), str(b), str(c),
                                                i, j, str(lhs), str(rhs),
                                            )
                                        )
                                for j in range(1, i):
                                    lhs = compose(ab, j, c)
                                    rhs = compose(ac_at[j - 1], i + ell - 1, b)
                                    if lhs != rhs:
                                        violations.append(
                                            Violation(
                                                "par", str(a), str(b), str(c),
                                                i, j, str(lhs), str(rhs),
                                            )
                                        )
    return violations
