import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from operad_forge.trees import (
    LabelledRootedTree,
    act,
    degree,
    enumerate_trees,
    full_subtree,
    in_vertices,
    order_relabel,
    parse_tree,
    restrict,
    tree_from_json,
    tree_to_json,
)
from operad_forge.prelie import (
    TreeSum,
    check_extremal_terms,
    check_pre_lie_relation,
    compose_pl,
    compose_pl_linear,
    degree_bounds,
    graft_compose,
    graft_maps,
    max_term,
    min_term,
    parse_tree_sum,
    pre_lie_associator,
)
from operad_forge.set_operads import (
    compose_max,
    compose_min,
    compose_nap,
    f_max_map,
    f_min_map,
    f_nap_map,
)

from conftest import standard_trees

FORK = parse_tree("2(1,3)")
CHAIN = parse_tree("2(1)")


class TestGraftCompose:
    def test_golden_first_term(self):
        out = graft_compose(FORK, 2, CHAIN, {1: 1, 3: 1})
        assert str(out) == "3(2(1,4))"

    def test_unit_insertion(self):
        unit = parse_tree("1")
        for n in range(1, 5):
            for t in enumerate_trees(n):
                for i in range(1, n + 1):
                    assert graft_compose(t, i, unit, {k: 1 for k in in_vertices(t, i)}) == t

    def test_hand_simulated_chain(self):
        mu = parse_tree("1(2)")
        assert str(graft_compose(mu, 1, mu, {2: 2})) == "1(2(3))"

    def test_errors(self):
        from operad_forge.trees import TreeError

        with pytest.raises(TreeError):
            graft_compose(FORK, 5, CHAIN, {})
        with pytest.raises(TreeError):
            graft_compose(FORK, 2, CHAIN, {1: 1})  # not total
        with pytest.raises(TreeError):
            graft_compose(FORK, 2, CHAIN, {1: 1, 3: 3})  # target out of range


class TestComposePl:
    def test_golden_expansion(self):
        out = compose_pl(FORK, 2, CHAIN)
        assert {str(t) for t in out.trees()} == {
            "3(2(1,4))", "3(2(1),4)", "3(1,2(4))", "3(1,2,4)",
        }
        assert all(c == 1 for _, c in out.terms())

    def test_unit_laws(self):
        unit = parse_tree("1")
        for n in range(1, 6):
            for t in enumerate_trees(n):
                assert compose_pl(unit, 1, t) == TreeSum.single(t)
                for i in range(1, n + 1):
                    assert compose_pl(t, i, unit) == TreeSum.single(t)

    def test_no_children_single_term(self):
        mu = parse_tree("1(2)")
        out = compose_pl(mu, 2, mu)
        assert out == TreeSum.single(parse_tree("1(2(3))"))

    def test_term_count_is_power(self):
        for n, m in itertools.product(range(1, 4), repeat=2):
            for t in enumerate_trees(n):
                for s in enumerate_trees(m):
                    for i in range(1, n + 1):
                        out = compose_pl(t, i, s)
                        assert len(out) == m ** len(in_vertices(t, i))
                        assert all(c == 1 for _, c in out.terms())


class TestTreeSum:
    def test_zero_and_singleton(self):
        zero = TreeSum(3)
        a = TreeSum.single(FORK)
        assert zero.is_zero()
        assert a + zero == a
        assert a - a == zero

    def test_linear_composition_matches_pointwise(self):
        a = TreeSum.single(FORK)
        b = TreeSum.single(CHAIN)
        assert compose_pl_linear(a, 2, b) == compose_pl(FORK, 2, CHAIN)

    def test_unit_law_termwise(self):
        a = TreeSum.single(parse_tree("1(2)")) - TreeSum.single(parse_tree("2(1)"))
        unit = TreeSum.single(parse_tree("1"))
        assert compose_pl_linear(a, 1, unit) == a

    def test_string_format_and_parse(self):
        out = compose_pl(FORK, 2, CHAIN)
        text = str(out)
        assert text == "1*3(1,2(4)) + 1*3(1,2,4) + 1*3(2(1),4) + 1*3(2(1,4))"
        assert parse_tree_sum(text) == out

    def test_string_with_negative_terms(self):
        s = TreeSum.single(parse_tree("1(2)")) - 2 * TreeSum.single(parse_tree("2(1)"))
        assert str(s) == "1*1(2) - 2*2(1)"
        assert parse_tree_sum(str(s)) == s


@st.composite
def tree_sums(draw, n):
    """Mixed-sign sums of arity n, built with TreeSum's own + and -."""
    total = TreeSum(n)
    terms = st.tuples(standard_trees(min_n=n, max_n=n), st.integers(-3, 3))
    for t, c in draw(st.lists(terms, max_size=4)):
        total = total + TreeSum.single(t, c)
        if draw(st.booleans()):  # cancel the term again, down to zero at times
            total = total - TreeSum.single(t, c)
    return total


@st.composite
def sum_pairs(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_n))
    return draw(tree_sums(n)), draw(tree_sums(m))


class TestComposePlLinear:
    @given(sum_pairs())
    @settings(max_examples=80)
    def test_matches_termwise_definition(self, pair):
        a, b = pair
        for i in range(1, a.arity + 1):
            expected = TreeSum(a.arity + b.arity - 1)
            for t, ct in a.terms():
                for s, cs in b.terms():
                    expected = expected + (ct * cs) * compose_pl(t, i, s)
            assert compose_pl_linear(a, i, b) == expected


class TestExtremalTerms:
    def test_golden_min_max(self):
        lo_tree = min_term(FORK, 2, CHAIN)
        hi_tree = max_term(FORK, 2, CHAIN)
        assert str(lo_tree) == "3(2(1),4)" and degree(lo_tree) == 3
        assert str(hi_tree) == "3(1,2(4))" and degree(hi_tree) == 5

    def test_golden_bounds(self):
        assert degree_bounds(FORK, 2, CHAIN) == (3, 5)

    def test_unit_bounds_collapse(self):
        unit = parse_tree("1")
        for t in enumerate_trees(3):
            for i in range(1, 4):
                lo, hi = degree_bounds(t, i, unit)
                assert lo == hi == degree(t)

    def test_no_children_min_equals_max(self):
        mu = parse_tree("1(2)")
        assert min_term(mu, 2, mu) == max_term(mu, 2, mu)

    def test_exhaustive_small(self):
        assert check_extremal_terms(3) == []

    def test_matches_set_operads(self):
        for n, m in itertools.product(range(1, 4), repeat=2):
            for t in enumerate_trees(n):
                for s in enumerate_trees(m):
                    for i in range(1, n + 1):
                        assert max_term(t, i, s) == compose_max(t, i, s)
                        assert min_term(t, i, s) == compose_min(t, i, s)

    @given(standard_trees(max_n=4), standard_trees(max_n=4))
    @settings(max_examples=50)
    def test_every_term_within_bounds(self, t, s):
        for i in range(1, t.n + 1):
            lo, hi = degree_bounds(t, i, s)
            degs = [degree(u) for u in compose_pl(t, i, s).trees()]
            assert min(degs) == lo and max(degs) == hi


class TestPreLieRelation:
    def test_relation_holds(self):
        assert check_pre_lie_relation() is True

    def test_associator_is_single_fork(self):
        assoc = pre_lie_associator(parse_tree("1(2)"))
        assert assoc == TreeSum.single(parse_tree("1(2,3)"))

    def test_alternate_generator(self):
        # the mirrored generator is the opposite product, so its associator
        # is symmetric in the first two inputs rather than the last two
        assoc = pre_lie_associator(parse_tree("2(1)"))
        assert assoc == -1 * TreeSum.single(parse_tree("3(1,2)"))
        swap = {1: 2, 2: 1, 3: 3}
        assert assoc.map_trees(lambda t: act(swap, t)) == assoc


def test_graft_maps_lexicographic():
    maps = list(graft_maps(FORK, 2, 2))
    assert maps == [
        {1: 1, 3: 1}, {1: 1, 3: 2}, {1: 2, 3: 1}, {1: 2, 3: 2},
    ]


def reference_graft(t, i, s, f):
    """T o_i S from the definition, on parent dicts.

    S replaces vertex i, labels of S shift up by i-1 and labels of T
    above i by m-1, the root of S hangs where i hung, and each child j
    of i regrafts onto f(j)+i-1.
    """
    m = s.n

    def outer(v):
        return v if v < i else v + m - 1

    parent = {}
    for v in t.labels:
        p = t.parent_of(v)
        if v == i:
            continue
        if p == i:
            parent[outer(v)] = f[v] + i - 1
        else:
            parent[outer(v)] = None if p is None else outer(p)
    for w in s.labels:
        q = s.parent_of(w)
        if q is not None:
            parent[w + i - 1] = q + i - 1
        else:
            pi = t.parent_of(i)
            parent[w + i - 1] = None if pi is None else outer(pi)
    return LabelledRootedTree(parent)


class TestKernelOracle:
    """The grafting kernel against the dict-based definition, arity <= 6."""

    @given(standard_trees(max_n=6), standard_trees(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_graft_compose_and_compose_pl(self, t, s):
        for i in range(1, t.n + 1):
            expected = {}
            for f in graft_maps(t, i, s.n):
                term = reference_graft(t, i, s, f)
                assert graft_compose(t, i, s, f) == term
                expected[term] = expected.get(term, 0) + 1
            assert compose_pl(t, i, s) == TreeSum(t.n + s.n - 1, expected)

    @given(standard_trees(max_n=6), standard_trees(max_n=6))
    @settings(max_examples=100, deadline=None)
    def test_extremal_and_nap_terms(self, t, s):
        for i in range(1, t.n + 1):
            assert max_term(t, i, s) == reference_graft(t, i, s, f_max_map(t, i, s.n))
            assert min_term(t, i, s) == reference_graft(t, i, s, f_min_map(t, i, s.n))
            assert compose_nap(t, i, s) == reference_graft(t, i, s, f_nap_map(t, i, s))

    @given(standard_trees(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_one_key_per_tree(self, t):
        unit = parse_tree("1")
        shifted = LabelledRootedTree(
            {v + 10: None if p is None else p + 10 for v, p in t.parent_map().items()}
        )
        builds = [
            parse_tree(str(t)),
            tree_from_json(tree_to_json(t)),
            LabelledRootedTree(t.parent_map()),
            order_relabel(shifted, range(1, t.n + 1)),
            graft_compose(unit, 1, t, {}),
            graft_compose(t, 1, unit, {k: 1 for k in t.children(1)}),
        ]
        for u in builds:
            assert u.is_standard and u == t and hash(u) == hash(t) and str(u) == str(t)
        assert shifted != t and not shifted.is_standard
        # a tree on another label set never equals a standard one
        for c in t.labels:
            sub = full_subtree(t, c)
            rest = [v for v in t.labels if v != c]
            pieces = restrict(t, rest).components if rest else ()
            for part in (sub, *pieces):
                std = order_relabel(part, range(1, part.n + 1))
                same_labels = part.labels == std.labels
                assert part.is_standard == same_labels
                assert (part == std) == same_labels
                if same_labels:
                    assert hash(part) == hash(std)
