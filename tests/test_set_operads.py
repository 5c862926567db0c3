import itertools
import os

import pytest

from operad_forge.trees import (
    LabelledRootedTree,
    TreeError,
    _standard,
    degree,
    enumerate_trees,
    parse_tree,
)
from operad_forge.prelie import (
    TreeSum,
    _graft_kernel,
    compose_pl_linear,
    degree_bounds,
    f_max_map,
    f_min_map,
    graft_compose,
)
from operad_forge.set_operads import (
    SET_COMPOSE,
    Violation,
    check_axioms,
    compose_max,
    compose_min,
    compose_nap,
    f_nap_map,
)

from conftest import with_plain_stage
from test_prelie import mixed_sign_sum

FORK = parse_tree("2(1,3)")


class TestGraftMapChoices:
    def test_extremal_maps(self):
        assert f_max_map(FORK, 2, 2) == {1: 2, 3: 1}
        assert f_min_map(FORK, 2, 2) == {1: 1, 3: 2}
        # an out-of-range position has no children to map
        for graft_map in (f_max_map, f_min_map):
            for i in (0, 4):
                with pytest.raises(TreeError):
                    graft_map(FORK, i, 2)

    def test_nap_is_constant_at_root(self):
        assert f_nap_map(FORK, 2, parse_tree("2(1)")) == {1: 2, 3: 2}


class TestCompositions:
    def test_max_reproduces_eight_vertex_example(self):
        t = parse_tree("4(3(1,2,5),6)")
        s = parse_tree("3(1(2))")
        assert str(compose_max(t, 3, s)) == "6(5(1,2,3(4,7)),8)"

    def test_min_relation(self):
        mu = parse_tree("1(2)")
        chain = parse_tree("1(2(3))")
        assert compose_min(mu, 1, mu) == chain
        assert compose_min(mu, 2, mu) == chain

    def test_nap_relation(self):
        a, b = parse_tree("1(2)"), parse_tree("2(1)")
        fork = parse_tree("2(1,3)")
        assert compose_nap(a, 1, b) == fork
        assert compose_nap(b, 2, a) == fork

    def test_min_max_agree_when_forced(self):
        unit = parse_tree("1")
        for n in range(1, 4):
            for t in enumerate_trees(n):
                for i in range(1, n + 1):
                    assert compose_min(t, i, unit) == compose_max(t, i, unit)
                    if not t.children(i):
                        s = parse_tree("2(1)")
                        assert compose_min(t, i, s) == compose_max(t, i, s)

    def test_root_follows_case_analysis(self):
        for n, m in itertools.product(range(1, 4), repeat=2):
            for t in enumerate_trees(n):
                for s in enumerate_trees(m):
                    for i in range(1, n + 1):
                        for comp in (compose_max, compose_min, compose_nap):
                            out = comp(t, i, s)
                            if i == t.root:
                                assert out.root == s.root + i - 1
                            else:
                                expected = t.root if t.root < i else t.root + m - 1
                                assert out.root == expected

    def test_degrees_hit_the_bounds(self):
        for n, m in itertools.product(range(1, 5), repeat=2):
            for t in enumerate_trees(n):
                for s in enumerate_trees(m):
                    for i in range(1, n + 1):
                        lo, hi = degree_bounds(t, i, s)
                        assert degree(compose_min(t, i, s)) == lo
                        assert degree(compose_max(t, i, s)) == hi


class TestAxioms:
    @pytest.mark.parametrize("kind", ["max", "min", "nap"])
    def test_set_operads_satisfy_axioms(self, kind):
        assert check_axioms(kind, 3) == []

    @pytest.mark.slow
    def test_max_axioms_arity_four(self, monkeypatch):
        monkeypatch.setenv("OPERAD_FORGE_THREADS", "2")  # capped at the usable CPUs
        assert check_axioms("max", 4) == []

    @pytest.mark.slow
    def test_linearized_composition_axioms(self):
        assert check_axioms("pl", 3) == []

    @pytest.mark.exhaustive
    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["min", "nap", "pl"])
    def test_axioms_arity_four(self, monkeypatch, kind):
        monkeypatch.setenv("OPERAD_FORGE_THREADS", "2")  # capped at the usable CPUs
        assert check_axioms(kind, 4) == []

    def test_violation_line_format(self):
        from operad_forge.set_operads import Violation

        v = Violation("seq", "1(2)", "1", "1", 1, 1, "1(2)", "2(1)")
        assert str(v) == "axiom=seq a=1(2) b=1 c=1 i=1 j=1 lhs=1(2) rhs=2(1)"

    def test_unknown_kind_rejected(self):
        from operad_forge.trees import TreeError

        with pytest.raises(TreeError):
            check_axioms("bogus", 3)

    @pytest.mark.parametrize("kind", [["max"], None, {}])
    def test_kind_that_is_not_a_string_rejected(self, kind):
        with pytest.raises(TreeError, match="unknown operad kind"):
            check_axioms(kind, 3)


@with_plain_stage
def clamp_compose(tree, i, inserted):
    """Not an operad: child k of i regrafts onto vertex min(k, m)."""
    m = inserted.n
    return graft_compose(tree, i, inserted, {k: min(k, m) for k in tree.children(i)})


def untabulated_violations(compose, max_arity):
    """The axiom loop with every inner composition computed where it is used."""
    arities = range(1, max_arity + 1)
    basis = {n: list(enumerate_trees(n)) for n in arities}
    unit = basis[1][0]
    found = []

    def check(axiom, a, b, c, i, j, lhs, rhs):
        if lhs != rhs:
            found.append(Violation(axiom, str(a), b, c, i, j, str(lhs), str(rhs)))

    for n in arities:
        for a in basis[n]:
            check("unitL", a, "1", "-", 1, 0, compose(unit, 1, a), a)
            for i in range(1, n + 1):
                check("unitR", a, "1", "-", i, 0, compose(a, i, unit), a)
    for n, m, ell in itertools.product(arities, repeat=3):
        for a, b, c in itertools.product(basis[n], basis[m], basis[ell]):
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    lhs = compose(compose(a, i, b), j + i - 1, c)
                    rhs = compose(a, i, compose(b, j, c))
                    check("seq", a, str(b), str(c), i, j, lhs, rhs)
                for j in range(1, i):
                    lhs = compose(compose(a, i, b), j, c)
                    rhs = compose(compose(a, j, c), i + ell - 1, b)
                    check("par", a, str(b), str(c), i, j, lhs, rhs)
    return found


@pytest.mark.parametrize("threads", ["1", "2"])
def test_violations_are_reported_in_loop_order(monkeypatch, threads):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", threads)
    monkeypatch.setitem(SET_COMPOSE, "max", clamp_compose)
    found = check_axioms("max", 3)
    assert len(found) == 6665
    assert {v.axiom for v in found} == {"seq", "par"}
    assert str(found[0]) == (
        "axiom=seq a=1(2) b=1(2) c=1(2) i=1 j=1 lhs=1(2(3(4))) rhs=1(2(3,4))"
    )
    assert found == untabulated_violations(clamp_compose, 3)


# ---- staged compositions: at(x, i, m) -> (y -> x o_i y) --------------------------

STAGED = {"max": compose_max, "min": compose_min, "nap": compose_nap}


class TestStagedForms:
    @pytest.mark.parametrize("kind", sorted(STAGED))
    def test_each_stage_equals_the_plain_composition(self, kind):
        # one stage per (T, i, m), applied to every S of arity m in turn
        compose = STAGED[kind]
        triples = 0
        for n, m in itertools.product(range(1, 5), range(1, 4)):
            for t in enumerate_trees(n):
                for i in range(1, n + 1):
                    at = compose.at(t, i, m)
                    for s in enumerate_trees(m):
                        assert at(s) == compose(t, i, s), (kind, str(t), i, str(s))
                        triples += 1
        assert triples == 3456

    def test_linear_stage_equals_the_plain_composition_on_single_terms(self):
        for n, m in itertools.product(range(1, 5), range(1, 4)):
            for t in enumerate_trees(n):
                a = TreeSum.single(t)
                for i in range(1, n + 1):
                    at = compose_pl_linear.at(a, i, m)
                    for s in enumerate_trees(m):
                        b = TreeSum.single(s)
                        assert at(b) == compose_pl_linear(a, i, b), (str(t), i, str(s))

    @pytest.mark.parametrize("n, m", list(itertools.product(range(1, 4), repeat=2)))
    def test_linear_stage_equals_the_plain_composition_on_mixed_sign_sums(self, n, m):
        first = TreeSum.single(next(enumerate_trees(n)))
        outers = [mixed_sign_sum(n), 2 * mixed_sign_sum(n) + first]
        some = mixed_sign_sum(m) - TreeSum.single(next(enumerate_trees(m)))
        inners = [mixed_sign_sum(m), -3 * mixed_sign_sum(m), some, TreeSum(m)]
        for a, i in itertools.product(outers, range(1, n + 1)):
            at = compose_pl_linear.at(a, i, m)
            for b in inners:
                assert at(b) == compose_pl_linear(a, i, b)

    @pytest.mark.parametrize("kind", sorted(STAGED))
    @pytest.mark.parametrize("i", [0, 4, -1, "2", 2.0, True])
    def test_a_stage_rejects_a_position_out_of_range(self, kind, i):
        with pytest.raises(TreeError, match="out of range for arity 3"):
            STAGED[kind].at(FORK, i, 2)

    @pytest.mark.parametrize("a", [TreeSum(3), TreeSum.single(FORK)], ids=["zero-sum", "one-term"])
    def test_a_linear_stage_rejects_a_position_out_of_range(self, a):
        with pytest.raises(TreeError, match="position 9 out of range for arity 3"):
            compose_pl_linear.at(a, 9, 2)

    @pytest.mark.parametrize("kind", sorted(STAGED))
    @pytest.mark.parametrize("m", ["2", None, 2.0, True, 0, -1])
    def test_a_stage_rejects_an_operand_arity_that_is_not_a_count(self, kind, m):
        with pytest.raises(TreeError, match="must be an integer|arity at least 1"):
            STAGED[kind].at(FORK, 2, m)

    @pytest.mark.parametrize("a", [TreeSum(3), TreeSum.single(FORK)], ids=["zero-sum", "one-term"])
    @pytest.mark.parametrize("m", ["2", None, 2.0, True, 0, -1])
    def test_a_linear_stage_rejects_an_operand_arity_that_is_not_a_count(self, a, m):
        with pytest.raises(TreeError, match="must be an integer|arity at least 1"):
            compose_pl_linear.at(a, 2, m)

    @pytest.mark.parametrize("kind", sorted(STAGED))
    def test_a_stage_rejects_an_operand_of_another_arity(self, kind):
        at = STAGED[kind].at(FORK, 2, 2)
        # 3(1,2) is rooted above 2, where no T-part of the nap stage lies
        for s in (FORK, parse_tree("3(1,2)")):
            with pytest.raises(TreeError, match="has arity 3, expected 2"):
                at(s)
        with pytest.raises(TreeError, match="is not a LabelledRootedTree"):
            at("1(2)")

    def test_a_linear_stage_rejects_an_operand_of_another_arity(self):
        at = compose_pl_linear.at(TreeSum.single(FORK), 2, 2)
        for b in (TreeSum.single(FORK), TreeSum(3), FORK):
            with pytest.raises(TreeError):
                at(b)

    @pytest.mark.parametrize("a", [FORK, "2(1,3)", None])
    def test_a_linear_stage_rejects_an_outer_operand_that_is_not_a_sum(self, a):
        with pytest.raises(TreeError, match="is not a TreeSum"):
            compose_pl_linear.at(a, 1, 2)


stages = []  # the (T, i, m) of every stage this process built


def clamp_at(tree, i, m):
    """clamp_compose staged: its graft map is fixed once the arity of the operand is."""
    f = {k: min(k, m) for k in tree.children(i)}
    stages.append((str(tree), i, m))
    return lambda inserted: graft_compose(tree, i, inserted, f)


def staged_clamp(tree, i, inserted):
    return clamp_at(tree, i, inserted.n)(inserted)


staged_clamp.at = clamp_at


@pytest.mark.parametrize("threads", ["1", "2"])
def test_violations_through_a_stage_of_its_own(monkeypatch, threads):
    """A composition that is not an operad, given with a stage that fixes its
    graft map once per (T, i, m): the sweep must apply its stages to the
    right operands in loop order."""
    monkeypatch.setenv("OPERAD_FORGE_THREADS", threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setitem(SET_COMPOSE, "max", staged_clamp)
    stages.clear()
    found = check_axioms("max", 3)
    assert stages  # the caller's share went through the staged form
    assert found == untabulated_violations(staged_clamp, 3)
    assert found == untabulated_violations(clamp_compose, 3)


def _kernel_clamp_at(tree, i, m):
    """clamp_compose staged on the kernel: T's part built once per (T, i, m)."""
    children, ends, splice = _graft_kernel(_standard(tree), i, m)
    head, tail = ends([min(k, m) for k in children])
    return lambda inserted: LabelledRootedTree._from_par(head + splice(_standard(inserted)) + tail)


def kernel_clamp(tree, i, inserted):
    return _kernel_clamp_at(tree, i, inserted.n)(inserted)


kernel_clamp.at = _kernel_clamp_at


@pytest.mark.parametrize("threads", ["1", "2"])
def test_violations_through_stages_that_hold_their_operand(monkeypatch, threads):
    """Each stage holds T's part of the kernel, so one applied to the wrong b
    or c, or reused for another outer tree, changes a violation."""
    monkeypatch.setenv("OPERAD_FORGE_THREADS", threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setitem(SET_COMPOSE, "max", kernel_clamp)
    found = check_axioms("max", 3)
    assert len(found) == 6665
    assert found == untabulated_violations(clamp_compose, 3)


def test_axiom_sweep_builds_each_stage_once_per_first_tree(monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", "1")
    built = []
    plain_at = compose_max.at

    def counting_at(tree, i, m):
        built.append((tree, i, m))
        return plain_at(tree, i, m)

    monkeypatch.setattr(compose_max, "at", counting_at)
    assert check_axioms("max", 3) == []
    # at arity 3: 384 for the basis table, 4 116 left stages (a o_i b) o_k x,
    # 288 for a o_i x and 1 044 parallel right sides (a o_j c) o_{i+ell-1} x
    assert len(built) <= 384 + 4116 + 288 + 1044  # 5 832; one item per (a, b) built 9 828
