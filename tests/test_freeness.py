import gc
import hashlib
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from operad_forge.trees import TreeError, enumerate_trees, order_relabel, parse_tree
from operad_forge.prelie import TreeSum
from operad_forge.set_operads import compose_max, compose_min, compose_nap
from operad_forge.freeness import (
    OperationTree,
    Witness,
    count_indecomposables,
    decomposition_witnesses,
    evaluate,
    factorize,
    find_collision,
    indecomposables,
    is_indecomposable,
    operation_trees,
    split,
    verify_freeness,
)

from conftest import standard_trees

X = parse_tree("6(5(1,2,3(4,7)),8)")


class TestWitnesses:
    def test_eight_vertex_example(self):
        ws = decomposition_witnesses(X)
        assert Witness(3, 5, 5) in ws
        assert ws == sorted(ws)

    def test_fork_has_none(self):
        assert decomposition_witnesses(parse_tree("2(1,3)")) == []

    def test_chain_is_decomposable(self):
        ws = decomposition_witnesses(parse_tree("1(2(3))"))
        assert ws == [Witness(2, 3, 2)]
        # cross-check: the chain really is a non-trivial composition
        mu = parse_tree("1(2)")
        assert compose_max(mu, 2, mu) == parse_tree("1(2(3))")

    def test_nontrivial_composition_always_witnessed(self):
        for n, m in itertools.product(range(2, 4), repeat=2):
            for t in enumerate_trees(n):
                for s in enumerate_trees(m):
                    for i in range(1, n + 1):
                        x = compose_max(t, i, s)
                        w = Witness(i, i + m - 1, _block_root(x, i, m))
                        assert w in decomposition_witnesses(x)


def _block_root(x, a, m):
    from operad_forge.trees import restrict

    return restrict(x, range(a, a + m))[0].root


def _composition_intervals(n):
    """Literal definition: x -> {(i, i+m-1) : compose_max(t, i, s) == x}.

    t and s range over all trees of arity at least 2 with t.n + s.n = n + 1.
    """
    intervals = {x: set() for x in enumerate_trees(n)}
    for k in range(2, n):
        m = n + 1 - k
        for t in enumerate_trees(k):
            for s in enumerate_trees(m):
                for i in range(1, k + 1):
                    intervals[compose_max(t, i, s)].add((i, i + m - 1))
    return intervals


class TestDifferentialOracle:
    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
    )
    def test_witnesses_are_the_composition_intervals(self, n):
        for x, intervals in _composition_intervals(n).items():
            ws = decomposition_witnesses(x)
            assert {(w.a, w.b) for w in ws} == intervals
            assert is_indecomposable(x) == (not intervals)


class TestNonStandardTrees:
    def test_every_entry_point_rejects(self):
        tree = order_relabel(parse_tree("1(2)"), [2, 3])
        with pytest.raises(TreeError):
            decomposition_witnesses(tree)
        with pytest.raises(TreeError):
            is_indecomposable(tree)
        with pytest.raises(TreeError):
            split(tree, Witness(2, 3, 2))
        with pytest.raises(TreeError):
            factorize(tree)


class TestIndecomposable:
    def test_arity_two_and_three(self):
        assert is_indecomposable(parse_tree("1(2)"))
        assert is_indecomposable(parse_tree("2(1)"))
        assert is_indecomposable(parse_tree("2(1,3)"))
        assert not is_indecomposable(parse_tree("1(2,3)"))
        assert not is_indecomposable(X)

    def test_rejects_arity_one(self):
        with pytest.raises(TreeError):
            is_indecomposable(parse_tree("1"))

    def test_generator_lists(self):
        assert [str(t) for t in indecomposables(2)] == ["1(2)", "2(1)"]
        assert [str(t) for t in indecomposables(3)] == ["2(1,3)"]

    @pytest.mark.parametrize("n,count", [(4, 14), (5, 146)])
    def test_generator_counts(self, n, count):
        assert count_indecomposables(n) == count

    @pytest.mark.slow
    def test_generator_count_arity_six(self):
        assert count_indecomposables(6) == 1994


class TestSplit:
    def test_golden_factorization(self):
        outer, inner = split(X, Witness(3, 5, 5))
        assert str(outer) == "4(3(1,2,5),6)"
        assert str(inner) == "3(1(2))"
        assert compose_max(outer, 3, inner) == X

    def test_roundtrip_exhaustive(self):
        for n, m in itertools.product(range(2, 4), repeat=2):
            for t in enumerate_trees(n):
                for s in enumerate_trees(m):
                    for i in range(1, n + 1):
                        x = compose_max(t, i, s)
                        w = Witness(i, i + m - 1, _block_root(x, i, m))
                        assert split(x, w) == (t, s)

    def test_every_witness_splits_consistently(self):
        for n in range(2, 6):
            for x in enumerate_trees(n):
                for w in decomposition_witnesses(x):
                    t, s = split(x, w)
                    assert compose_max(t, w.a, s) == x

    @settings(deadline=None)
    @given(standard_trees(max_n=20), standard_trees(max_n=20), st.data())
    def test_split_inverts_compose_max(self, o, s, data):
        a = data.draw(st.integers(min_value=1, max_value=o.n))
        w = Witness(a, a + s.n - 1, s.root + a - 1)
        assert split(compose_max(o, a, s), w) == (o, s)

    def test_invalid_witness_rejected(self):
        with pytest.raises(TreeError):
            split(X, Witness(1, 2, 1))

    @pytest.mark.parametrize(
        "text,witness",
        [
            ("2(1,3)", (1, 2)),
            ("1(2)", (1.0, 2, 1)),
            ("1(2)", (True, 2, 1)),
            ("1(2)", (1, 2, 1, 1)),
            ("1(2)", [1, 2, 1]),
            ("1(2)", None),
            ("1(2)", "121"),
        ],
    )
    def test_rejects_witness_that_is_not_three_ints(self, text, witness):
        with pytest.raises(TreeError, match="is not a witness"):
            split(parse_tree(text), witness)


class TestOperationTrees:
    def test_structural_equality(self):
        mu = parse_tree("1(2)")
        single = OperationTree(mu, (None, None))
        nested = OperationTree(mu, (None, single))
        assert nested != OperationTree(mu, (single, None))
        assert nested.arity == 3

    @pytest.mark.parametrize(
        "slot", [5, "_", parse_tree("1"), TreeSum.single(parse_tree("1(2)"))]
    )
    def test_rejects_slot_that_is_not_a_word(self, slot):
        with pytest.raises(TreeError, match="neither None nor an OperationTree"):
            OperationTree(parse_tree("1(2)"), (None, slot))

    @pytest.mark.parametrize(
        "node", ["1(2)", None, OperationTree(parse_tree("1(2)"), (None, None))]
    )
    def test_rejects_node_that_is_not_a_tree(self, node):
        with pytest.raises(TreeError, match="is not a LabelledRootedTree"):
            OperationTree(node, (None, None))

    def test_text_format(self):
        mu = parse_tree("1(2)")
        fork = parse_tree("2(1,3)")
        word = OperationTree(fork, (None, OperationTree(mu, (None, None)), None))
        assert str(word) == "2(1,3)[_, 1(2), _]"
        assert str(OperationTree(fork, (None, None, None))) == "2(1,3)"

    def test_evaluate_single_node_and_slot(self):
        fork = parse_tree("2(1,3)")
        mu = parse_tree("1(2)")
        assert evaluate(OperationTree(fork, (None, None, None))) == fork
        word = OperationTree(fork, (None, OperationTree(mu, (None, None)), None))
        assert evaluate(word) == compose_max(fork, 2, mu)

    def test_enumeration_counts_match_cayley(self):
        for n in range(2, 6):
            assert len(operation_trees(n)) == n ** (n - 1)

    def test_enumeration_order(self):
        words = [str(w) for w in operation_trees(4)]
        assert words[:2] == ["1(2)[_, 1(2)[_, 1(2)]]", "1(2)[_, 1(2)[_, 2(1)]]"]
        digest = hashlib.sha256("\n".join(words).encode()).hexdigest()
        assert digest == "1fd088461c8df559485ee8bf880a2aa72df4595113ff3412934687b6b17460a1"
        words = [str(w) for w in operation_trees(5)]
        assert len(words) == 625
        digest = hashlib.sha256("\n".join(words).encode()).hexdigest()
        assert digest == "00ad652ad1a13fd87c32a321b6872069af1666002e7b29e08d25aa9e523077bc"

    def test_words_are_freed_on_return(self):
        # no reference cycle may keep the words alive once the caller drops them
        gc.collect()
        gc.disable()
        try:
            operation_trees(5)
            verify_freeness(4)
            find_collision("min", 4)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFactorize:
    def test_indecomposable_is_single_node(self):
        fork = parse_tree("2(1,3)")
        assert factorize(fork) == OperationTree(fork, (None, None, None))

    def test_chain_factorization(self):
        mu = parse_tree("1(2)")
        expected = OperationTree(mu, (None, OperationTree(mu, (None, None))))
        assert factorize(parse_tree("1(2(3))")) == expected

    def test_golden_example_evaluates_back(self):
        word = factorize(X)
        assert evaluate(word) == X

    def test_roundtrip_up_to_arity_five(self):
        for n in range(2, 6):
            for x in enumerate_trees(n):
                assert evaluate(factorize(x)) == x

    def test_scan_order_independence(self):
        for n in range(2, 6):
            for x in enumerate_trees(n):
                assert factorize(x) == factorize(x, reverse_scan=True)

    def test_every_node_is_a_generator(self):
        # contracting a block that still holds a smaller witness would
        # leave a decomposable node and yet round-trip
        for n in range(2, 6):
            for x in enumerate_trees(n):
                assert all(map(is_indecomposable, _nodes(factorize(x))))

    @pytest.mark.slow
    def test_scan_order_independence_arity_six(self):
        for x in enumerate_trees(6):
            assert factorize(x) == factorize(x, reverse_scan=True)

    def test_word_of_deep_chain(self):
        # every word operation is iterative: 1200 nesting levels
        chain = "(".join(str(v) for v in range(1200, 0, -1)) + ")" * 1199
        word, again = factorize(parse_tree(chain)), factorize(parse_tree(chain))
        assert word.arity == again.arity == 1200
        assert word == again and hash(word) == hash(again)
        assert repr(word).startswith("OperationTree(")

    @settings(deadline=None)
    @given(standard_trees(min_n=2, max_n=40))
    def test_unique_factorization_of_large_trees(self, x):
        word = factorize(x)
        assert evaluate(word) == x
        assert word == factorize(x, reverse_scan=True)
        assert all(map(is_indecomposable, _nodes(word)))


def _nodes(word):
    """The generators of an operation tree, in preorder."""
    stack = [word]
    while stack:
        w = stack.pop()
        yield w.node
        stack.extend(s for s in reversed(w.slots) if s is not None)


class TestFreeness:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 9), (4, 64)])
    def test_bijection_small(self, n, count):
        report = verify_freeness(n)
        assert report.ok
        assert report.constructions == report.distinct == report.expected == count

    def test_bijection_arity_five(self):
        assert verify_freeness(5).ok

    @pytest.mark.slow
    def test_bijection_arity_seven(self):
        assert verify_freeness(7) == (True, 117649, 117649, 117649)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_arity_below_two(self, n):
        with pytest.raises(TreeError):
            verify_freeness(n)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_rejects_arity_that_is_not_an_int(self, n):
        # a warm cache entry must not answer: a keyword call keys 3 and 3.0 alike
        indecomposables(n=3)
        calls = [
            lambda: next(enumerate_trees(n)),
            lambda: indecomposables(n),
            lambda: indecomposables(n=n),
            lambda: operation_trees(n),
            lambda: verify_freeness(n),
            lambda: find_collision("min", n),
        ]
        for call in calls:
            with pytest.raises(TreeError):
                call()


class TestCollisions:
    def test_min_collision_is_the_known_pair(self):
        pair = find_collision("min", 3)
        assert pair is not None
        texts = {str(w) for w in pair}
        assert texts == {"1(2)[_, 1(2)]", "1(2)[1(2), _]"}
        assert {evaluate(w, compose_min) for w in pair} == {parse_tree("1(2(3))")}

    def test_nap_collision_is_the_known_pair(self):
        pair = find_collision("nap", 3)
        assert pair is not None
        texts = {str(w) for w in pair}
        assert texts == {"1(2)[2(1), _]", "2(1)[_, 1(2)]"}
        assert {evaluate(w, compose_nap) for w in pair} == {parse_tree("2(1,3)")}

    def test_max_never_collides_at_small_arity(self):
        for n in range(2, 7):
            assert find_collision("max", n) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(TreeError):
            find_collision("bogus", 3)

    @pytest.mark.parametrize("kind", [["min"], None, {}])
    def test_kind_that_is_not_a_string_rejected(self, kind):
        with pytest.raises(TreeError, match="unknown operad kind"):
            find_collision(kind, 3)

    @pytest.mark.parametrize("kind,n", [("min", 1), ("nap", 0), ("max", -2)])
    def test_rejects_arity_below_two(self, kind, n):
        with pytest.raises(TreeError):
            find_collision(kind, n)
