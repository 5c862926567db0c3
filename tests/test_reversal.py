"""The label reversal r(v) = n + 1 - v as a checked symmetry.

Reversing the labels swaps "below i" with "above i" and vertex 1 of
the inserted tree with vertex m, so r(T o_i S) = r(T) o_(n+1-i) r(S)
for the max, min and nap compositions, and termwise for compose_pl.
It keeps every |a - b|, so degrees and degree bounds are invariant,
and it maps witnesses to witnesses, so generators to generators.  The
symmetry is checked on every instance here; no check elsewhere uses it
to skip instances.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from operad_forge.trees import LabelledRootedTree, degree, enumerate_trees
from operad_forge.prelie import compose_pl, degree_bounds
from operad_forge.set_operads import compose_max, compose_min, compose_nap
from operad_forge.freeness import indecomposables, is_indecomposable

from conftest import reversed_tree, standard_trees

SET = {"max": compose_max, "min": compose_min, "nap": compose_nap}
BASIS = {n: list(enumerate_trees(n)) for n in range(1, 5)}
REVERSED = {t: reversed_tree(t) for trees in BASIS.values() for t in trees}


def triples(max_arity):
    """Every (T, i, S) with T and S of arity at most max_arity, S varying fastest."""
    arities = range(1, max_arity + 1)
    return [
        (t, i, s)
        for n, m in itertools.product(arities, repeat=2)
        for t in BASIS[n]
        for i in range(1, n + 1)
        for s in BASIS[m]
    ]


@pytest.mark.parametrize("kind", sorted(SET))
def test_reversal_commutes_with_each_composition_and_its_stage(kind):
    compose, checked = SET[kind], 0
    for n, m in itertools.product(range(1, 5), repeat=2):
        for t, i in ((t, i) for t in BASIS[n] for i in range(1, n + 1)):
            rt, ri = REVERSED[t], n + 1 - i
            at, mirrored_at = compose.at(t._par, i, m), compose.at(rt._par, ri, m)
            for s in BASIS[m]:
                image = compose(rt, ri, REVERSED[s])
                assert reversed_tree(compose(t, i, s)) == image, (kind, str(t), i, str(s))
                staged = LabelledRootedTree._from_par(at(s._par))
                assert reversed_tree(staged) == image
                assert mirrored_at(REVERSED[s]._par) == image._par
                checked += 1
    assert checked == len(triples(4)) == 21888


def test_reversal_commutes_with_the_linear_composition_termwise():
    for t, i, s in triples(3):
        image = compose_pl(REVERSED[t], t.n + 1 - i, REVERSED[s])
        assert compose_pl(t, i, s).map_trees(reversed_tree) == image, (str(t), i, str(s))
    assert len(triples(3)) == 384


def test_reversal_keeps_the_degree_bounds():
    for t, i, s in triples(4):
        assert degree_bounds(REVERSED[t], t.n + 1 - i, REVERSED[s]) == degree_bounds(t, i, s)


@pytest.mark.parametrize("n", range(1, 7))
def test_reversal_keeps_degree_and_indecomposability(n):
    for t in enumerate_trees(n):
        r = reversed_tree(t)
        assert degree(r) == degree(t)
        assert n == 1 or is_indecomposable(r) == is_indecomposable(t)


@pytest.mark.parametrize("n, fixed", [(2, 0), (3, 1), (4, 0), (5, 2), (6, 0)])
def test_generators_are_closed_under_reversal(n, fixed):
    generators = set(indecomposables(n))
    assert {reversed_tree(g) for g in generators} == generators
    assert sum(reversed_tree(g) == g for g in generators) == fixed


@settings(deadline=None, max_examples=60)
@given(standard_trees(min_n=1, max_n=10), standard_trees(min_n=1, max_n=5), st.data())
def test_reversal_commutes_with_composition_on_larger_trees(t, s, data):
    i = data.draw(st.integers(min_value=1, max_value=t.n))
    rt, ri, rs = reversed_tree(t), t.n + 1 - i, reversed_tree(s)
    for compose in SET.values():
        assert reversed_tree(compose(t, i, s)) == compose(rt, ri, rs)
        staged = LabelledRootedTree._from_par(compose.at(t._par, i, s.n)(s._par))
        assert reversed_tree(staged)._par == compose.at(rt._par, ri, s.n)(rs._par)
    assert degree_bounds(rt, ri, rs) == degree_bounds(t, i, s)
    if t.n <= 6 and s.n <= 3:  # compose_pl has up to s.n ** (t.n - 1) terms
        assert compose_pl(t, i, s).map_trees(reversed_tree) == compose_pl(rt, ri, rs)
    if t.n >= 2:
        assert is_indecomposable(rt) == is_indecomposable(t)
