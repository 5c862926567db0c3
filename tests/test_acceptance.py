"""End-to-end acceptance checks, one test per criterion.

Everything here is exact integer arithmetic; there are no tolerances.
Each test prints a PASS line on success (visible with pytest -s or -rA).
"""

import pytest

from operad_forge.trees import degree, enumerate_trees, parse_tree
from operad_forge.prelie import (
    check_extremal_terms,
    check_pre_lie_relation,
    compose_pl,
    pre_lie_associator,
    TreeSum,
)
from operad_forge.set_operads import check_axioms, compose_max, compose_min, compose_nap
from operad_forge.freeness import (
    Witness,
    count_indecomposables,
    evaluate,
    factorize,
    find_collision,
    split,
    verify_freeness,
)
from operad_forge.series import cayley_series, generator_series, verify_functional_equation

from conftest import mirrored_word, reversed_tree


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_01_cayley_counts():
    expected = {n: n ** (n - 1) for n in range(1, 9)}
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_trees(n)) == expected[n]
    report(1, "tree counts n^(n-1) for n=1..6")


@pytest.mark.slow
def test_01b_cayley_counts_large():
    assert sum(1 for _ in enumerate_trees(7)) == 7**6
    assert sum(1 for _ in enumerate_trees(8)) == 8**7
    report(1, "tree counts n^(n-1) for n=7..8")


def test_02_golden_composition():
    t, s = parse_tree("2(1,3)"), parse_tree("2(1)")
    out = compose_pl(t, 2, s)
    by_degree = sorted((degree(u), str(u)) for u in out.trees())
    assert by_degree == [
        (3, "3(2(1),4)"),
        (4, "3(1,2,4)"),
        (4, "3(2(1,4))"),
        (5, "3(1,2(4))"),
    ]
    assert all(c == 1 for _, c in out.terms())
    report(2, "four-term composition with degrees 3,4,4,5")


def test_03_degree_golden_values():
    values = [
        ("2(1,3)", 2),
        ("3(2(1,4))", 4),
        ("3(1,2(4))", 5),
        ("3(2(1),4)", 3),
    ]
    for text, expected in values:
        assert degree(parse_tree(text)) == expected
    report(3, "degree examples 2, 4, 5, 3")


@pytest.mark.slow
def test_04_extremal_uniqueness_and_bounds():
    assert check_extremal_terms(4) == []
    report(4, "min/max terms unique and bounds tight for arities <= 4")


def test_05a_set_operad_axioms():
    for kind in ("max", "min", "nap"):
        assert check_axioms(kind, 3) == []
    report(5, "max/min/nap axioms hold exhaustively at arity <= 3")


@pytest.mark.slow
def test_05b_linearized_axioms():
    assert check_axioms("pl", 3) == []
    report(5, "linearized composition axioms hold at arity <= 3")


def test_05c_unit_laws_to_arity_five():
    unit = parse_tree("1")
    unit_sum = TreeSum.single(unit)
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert compose_pl(unit, 1, t) == TreeSum.single(t)
            for comp in (compose_max, compose_min, compose_nap):
                assert comp(unit, 1, t) == t
            for i in range(1, n + 1):
                assert compose_pl(t, i, unit) == TreeSum.single(t)
                for comp in (compose_max, compose_min, compose_nap):
                    assert comp(t, i, unit) == t
    assert unit_sum.arity == 1
    report(5, "unit laws hold for all trees up to arity 5")


@pytest.mark.parametrize("n,count", [(2, 2), (3, 9), (4, 64), (5, 625)])
def test_06_freeness_bijection(n, count):
    result = verify_freeness(n)
    assert result.ok and result.constructions == count
    report(6, f"freeness bijection at arity {n} ({count} constructions)")


@pytest.mark.slow
def test_06b_freeness_bijection_arity_six():
    result = verify_freeness(6)
    assert result.ok and result.constructions == 7776
    report(6, "freeness bijection at arity 6 (7776 constructions)")


@pytest.mark.parametrize("n,count", [(2, 2), (3, 1), (4, 14), (5, 146), (6, 1994)])
def test_07_generator_counts(n, count):
    assert count_indecomposables(n) == count
    report(7, f"{count} indecomposables at arity {n}")


@pytest.mark.slow
def test_07b_generator_count_arity_seven():
    assert count_indecomposables(7) == 32853
    report(7, "32853 indecomposables at arity 7")


def test_08_series_inversion():
    beta = generator_series(9)
    assert beta.coeffs[2:] == (2, 1, 14, 146, 1994, 32853, 630320, 13759430)
    assert verify_functional_equation(cayley_series(9), beta, 9)
    report(8, "generator series coefficients through order 9")


def test_09_golden_factorization():
    x = parse_tree("6(5(1,2,3(4,7)),8)")
    outer, inner = split(x, Witness(3, 5, 5))
    assert str(outer) == "4(3(1,2,5),6)"
    assert str(inner) == "3(1(2))"
    assert compose_max(outer, 3, inner) == x
    report(9, "eight-vertex tree splits and recomposes")


@pytest.mark.slow
def test_10_factorization_roundtrip_and_uniqueness():
    for n in range(2, 7):
        for x in enumerate_trees(n):
            assert evaluate(factorize(x)) == x
    for n in range(2, 6):
        for x in enumerate_trees(n):
            assert factorize(x) == mirrored_word(factorize(reversed_tree(x)))
    report(10, "round-trip to arity 6, scan-order independence to arity 5")


def test_11_non_freeness_witnesses():
    pair = find_collision("min", 3)
    assert pair is not None
    assert {str(w) for w in pair} == {"1(2)[_, 1(2)]", "1(2)[1(2), _]"}
    assert {evaluate(w, compose_min) for w in pair} == {parse_tree("1(2(3))")}

    pair = find_collision("nap", 3)
    assert pair is not None
    assert {str(w) for w in pair} == {"1(2)[2(1), _]", "2(1)[_, 1(2)]"}
    assert {evaluate(w, compose_nap) for w in pair} == {parse_tree("2(1,3)")}
    report(11, "min and nap collisions match the known relations")


def test_12_pre_lie_relation():
    assert check_pre_lie_relation() is True
    assoc = pre_lie_associator(parse_tree("1(2)"))
    assert assoc == TreeSum.single(parse_tree("1(2,3)"))
    report(12, "pre-Lie relation holds with associator 1(2,3)")
