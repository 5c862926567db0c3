import json

import pytest
from hypothesis import given, settings

from operad_forge.trees import (
    LabelledRootedTree,
    TreeError,
    _expect,
    act,
    degree,
    enumerate_trees,
    epsilon,
    full_subtree,
    gap,
    order_relabel,
    parse_tree,
    restrict,
    tree_from_json,
    tree_to_json,
)
from operad_forge.prelie import (
    TreeSum,
    compose_pl,
    degree_bounds,
    f_max_map,
    f_min_map,
    graft_compose,
    graft_maps,
    max_term,
    min_term,
)
from operad_forge.set_operads import compose_max, compose_min, compose_nap, f_nap_map
from operad_forge.freeness import (
    OperationTree,
    Witness,
    _scan,
    decomposition_witnesses,
    evaluate,
    factorize,
    is_indecomposable,
    split,
)

from conftest import standard_trees

X_TEXT = "6(5(1,2,3(4,7)),8)"


class TestParseRender:
    def test_single_vertex(self):
        t = parse_tree("1")
        assert t.n == 1 and t.root == 1

    def test_three_vertex_fork(self):
        t = parse_tree("2(1,3)")
        assert t.root == 2
        assert t.children(2) == (1, 3)

    def test_children_of_unknown_label(self):
        piece = restrict(parse_tree(X_TEXT), [3, 4, 5])[0]
        assert piece.children(5) == (3,) and piece.children(4) == ()
        assert piece.parent_map() == {3: 5, 4: 3, 5: None}
        fork = parse_tree("2(1,3)")
        # 0 and -1 would index the parent tuple from its end
        for t, v in [(fork, 4), (fork, 0), (fork, -1), (piece, 1), (piece, 0)]:
            gap_at, epsilon_at = (lambda v: gap(t, v)), (lambda v: epsilon(t, v, 2, 1))
            for query in (t.children, t.parent_of, gap_at, epsilon_at):
                with pytest.raises(TreeError):
                    query(v)

    def test_eight_vertex_example(self):
        t = parse_tree(X_TEXT)
        assert t.n == 8
        assert str(t) == X_TEXT

    def test_children_sorted_canonically(self):
        assert str(parse_tree("2(3,1)")) == "2(1,3)"
        assert str(parse_tree("1(2)")) == "1(2)"

    @pytest.mark.parametrize(
        "bad",
        [
            "", "1(", "2(1,1)", "1(3)", "a(b)", "1(2))", "0", "1(2) x",
            "2(01)", "1(\u0662)", "1(\u00b2)",  # leading zero, non-ASCII digits
            "1(2", "1(2]",  # an open child list that does not close
            # labels longer than int() reads
            pytest.param("1" * 5000, id="5000-digit root"),
            pytest.param("2(1," + "3" * 4400 + ")", id="4400-digit child"),
            None, 123, pytest.param(b"1", id="bytes"),  # not a str
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(TreeError) as exc:
            parse_tree(bad)
        assert len(str(exc.value)) < 200  # a long input is clipped in the message

    def test_messages_show_a_short_input_whole_and_clip_a_long_one(self):
        with pytest.raises(TreeError) as exc:
            parse_tree("1(2))")
        assert str(exc.value) == "trailing text at position 4 in '1(2))'"
        with pytest.raises(TreeError) as exc:
            parse_tree("1" * 5000)
        assert str(exc.value) == (
            f"label too long at position 0 in '{'1' * 59}... (5002 characters)"
        )

    def test_type_check_clips_a_long_argument(self):
        with pytest.raises(TreeError, match=r"characters\) is not a LabelledRootedTree$") as exc:
            _expect(list(range(10_000)))
        assert len(str(exc.value)) < 200

    def test_roundtrip_all_small_trees(self):
        for n in range(1, 6):
            for t in enumerate_trees(n):
                assert parse_tree(str(t)) == t

    def test_deep_chain_roundtrip(self):
        chain = "(".join(str(v) for v in range(1, 1201)) + ")" * 1199
        t = parse_tree(chain)
        assert t.n == 1200 and degree(t) == 1199
        assert str(t) == chain

    def test_rejects_empty_and_disconnected_parent_maps(self):
        for empty in ({}, None):  # no vertex is checked before the Mapping type
            with pytest.raises(TreeError, match="at least one vertex"):
                LabelledRootedTree(empty)
        with pytest.raises(TreeError, match="do not reach the root"):
            LabelledRootedTree({1: 2, 2: 1, 3: None})

    def test_rejects_bool_labels(self):
        with pytest.raises(TreeError):
            LabelledRootedTree({True: None})
        with pytest.raises(TreeError):
            LabelledRootedTree({1: None, 2: True})

    @pytest.mark.parametrize("v", [True, False, 1.0, "1"])
    def test_rejects_vertex_that_is_not_an_int(self, v):
        t = parse_tree("1(2)")
        queries = [
            t.parent_of,
            t.children,
            lambda v: gap(t, v),
            lambda v: epsilon(t, v, 2, 1),
            lambda v: epsilon(t, 2, 2, v),
            lambda v: epsilon(t, 2, v, 1),
        ]
        for query in queries:
            with pytest.raises(TreeError):
                query(v)

    def test_equality_is_parent_map_equality(self):
        a = LabelledRootedTree({2: None, 1: 2, 3: 2})
        b = parse_tree("2(1,3)")
        assert a == b and hash(a) == hash(b)


class TestJson:
    def test_roundtrip(self):
        t = parse_tree(X_TEXT)
        data = json.loads(tree_to_json(t))
        assert data["n"] == 8
        assert data["parent"][5] == 0  # vertex 6 is the root
        assert tree_from_json(tree_to_json(t)) == t
        assert tree_from_json(tree_to_json(t).encode()) == t  # bytes, as json.loads takes

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1,2]",
            '"2(1)"',
            '{"n":2}',
            '{"parent":[0,1]}',
            '{"n":"2","parent":[0,1]}',
            '{"n":2,"parent":[0,"1"]}',
            '{"n":2,"parent":[0,1.0]}',
            '{"n":2,"parent":[0,true]}',
            '{"n":2,"parent":{"2":1}}',
            '{"n":2,"parent":[0]}',
            '{"n":2,"parent":[0,0]}',
            '{"n":2,"parent":[2,1]}',
            '{"n":2,"parent":[0,5]}',
            '{"n":3,"parent":[2,1,0]}',
            None,
            pytest.param('{"n":1,"parent":[' + "1" * 5000 + "]}", id="5000-digit parent"),
            pytest.param("[" * 100000, id="100000 open brackets"),
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(TreeError):
            tree_from_json(text)

    def test_rejects_tree_that_is_not_standard(self):
        with pytest.raises(TreeError, match="standard trees only"):
            tree_to_json(LabelledRootedTree({2: None, 3: 2}))


class TestIsStandard:
    def test_parsed_trees_are_standard(self):
        assert parse_tree(X_TEXT).is_standard
        for n in range(1, 5):
            for t in enumerate_trees(n):
                assert parse_tree(str(t)).is_standard

    @pytest.mark.parametrize(
        "parent",
        [{2: None, 3: 2}, {1: None, 3: 1}, {1: None, 2: 1, 4: 2}],
        ids=["2,3", "1,3", "1,2,4"],
    )
    def test_other_label_sets_are_not(self, parent):
        assert not LabelledRootedTree(parent).is_standard


class TestEnumerate:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 9), (4, 64), (5, 625)])
    def test_cayley_counts(self, n, count):
        trees = list(enumerate_trees(n))
        assert len(trees) == count
        assert len({str(t) for t in trees}) == count

    def test_arity_three_matches_known_list(self):
        expected = {
            "1(2,3)", "2(1,3)", "3(1,2)",
            "3(2(1))", "2(3(1))", "1(3(2))",
            "3(1(2))", "1(2(3))", "2(1(3))",
        }
        assert {str(t) for t in enumerate_trees(3)} == expected

    def test_rejects_zero(self):
        with pytest.raises(TreeError):
            next(enumerate_trees(0))

    @pytest.mark.slow
    def test_count_n6_distinct(self):
        seen = {str(t) for t in enumerate_trees(6)}
        assert len(seen) == 6**5


class TestDegree:
    @pytest.mark.parametrize(
        "text,expected",
        [("2(1,3)", 2), ("3(2(1,4))", 4), ("3(1,2(4))", 5), ("3(2(1),4)", 3), ("1", 0)],
    )
    def test_golden_degrees(self, text, expected):
        assert degree(parse_tree(text)) == expected

    @given(standard_trees())
    def test_at_least_edge_count(self, t):
        assert degree(t) >= t.n - 1


class TestRestrictAndSubtrees:
    def test_seven_vertex_example(self):
        t = parse_tree("3(1(6(2,7)),4,5)")
        assert [str(c) for c in restrict(t, {2, 3, 4, 5, 6})] == ["3(4,5)", "6(2)"]

    def test_full_label_set_is_identity(self):
        t = parse_tree(X_TEXT)
        assert restrict(t, t.labels) == (t,)

    def test_interval_restriction_keeps_labels(self):
        x = parse_tree(X_TEXT)
        assert [str(c) for c in restrict(x, [3, 4, 5])] == ["5(3(4))"]

    def test_errors(self):
        t = parse_tree("1(2)")
        with pytest.raises(TreeError):
            restrict(t, set())
        with pytest.raises(TreeError):
            restrict(t, {1, 9})
        for keep in (None, 5):
            with pytest.raises(TreeError, match="is not an Iterable"):
                restrict(t, keep)
        with pytest.raises(TreeError, match="must be integers"):
            restrict(t, [[1]])  # an unhashable label
        with pytest.raises(TreeError, match="no vertex labelled"):
            full_subtree(t, [1])

    def test_full_subtree_example(self):
        x = parse_tree(X_TEXT)
        assert str(full_subtree(x, 5)) == "5(1,2,3(4,7))"

    def test_full_subtree_root_and_leaf(self):
        t = parse_tree("1(2)")
        assert full_subtree(t, 1) == t
        assert str(full_subtree(t, 2)) == "2"

    @given(standard_trees(min_n=2))
    @settings(max_examples=60)
    def test_descendant_restriction_is_full_subtree(self, t):
        # "above c" in the tree order, i.e. the descendants of c
        for c in t.labels:
            sub = full_subtree(t, c)
            assert restrict(t, sub.labels) == (sub,)


class TestRelabelAndAction:
    def test_standardize_restriction(self):
        piece = restrict(parse_tree(X_TEXT), [3, 4, 5])[0]
        assert str(order_relabel(piece, [1, 2, 3])) == "3(1(2))"

    def test_identity_and_forced_targets(self):
        t = parse_tree("2(1,3)")
        assert order_relabel(t, t.labels) == t
        assert str(order_relabel(t, [4, 6, 9])) == "6(4,9)"
        assert str(order_relabel(t, iter([4, 6, 9]))) == "6(4,9)"  # read once, no len

    def test_size_mismatch(self):
        with pytest.raises(TreeError):
            order_relabel(parse_tree("1(2)"), [1, 2, 3])

    def test_repeated_targets(self):
        # two targets that collapse to one label would merge vertices
        with pytest.raises(TreeError):
            order_relabel(parse_tree("3(1,2)"), [4, 4, 9])

    @pytest.mark.parametrize(
        "target,message",
        [(None, "is not an Iterable"), (5, "is not an Iterable"),
         ([1, 2, "a"], "must be integers"), ([1, 2.0, 3], "must be integers")],
        ids=["None", "int", "str label", "float label"],
    )
    def test_rejects_targets_that_are_not_integer_labels(self, target, message):
        with pytest.raises(TreeError, match=message):
            order_relabel(parse_tree("3(1,2)"), target)

    @given(standard_trees(min_n=2, max_n=6))
    @settings(max_examples=40)
    def test_relabel_functorial(self, t):
        mid = [2 * v + 1 for v in t.labels]
        end = [3 * v for v in t.labels]
        assert order_relabel(order_relabel(t, mid), end) == order_relabel(t, end)

    def test_act(self):
        t = parse_tree("1(2)")
        assert act({1: 1, 2: 2}, t) == t
        assert str(act({1: 2, 2: 1}, t)) == "2(1)"
        fork = parse_tree("1(2,3)")
        assert act({1: 1, 2: 3, 3: 2}, fork) == fork

    def test_act_rejects_bad_arguments(self):
        with pytest.raises(TreeError, match="not a permutation"):
            act({1: 1, 2: 1}, parse_tree("1(2)"))
        # a label of another type, and a bool or a float that equals a label
        for sigma in [{1: 1, "a": 2}, {1: "a", 2: 1}, {True: 2, 2: 1}, {1.0: 2, 2: 1}]:
            with pytest.raises(TreeError, match="sigma is not a permutation of the label set"):
                act(sigma, parse_tree("1(2)"))
        with pytest.raises(TreeError, match="defined on standard trees"):
            act({2: 3, 3: 2}, LabelledRootedTree({2: None, 3: 2}))


class TestGapEpsilon:
    def test_gap_golden(self):
        t = parse_tree("2(1,3)")
        assert gap(t, 2) == 0
        assert gap(t, 1) == 0  # the only candidate edge {2,3} lies above 1
        chain = parse_tree("3(1(2))")
        assert gap(chain, 2) == 1  # edge {1,3} straddles 2

    def test_gap_brute_force(self):
        for n in range(2, 5):
            for t in enumerate_trees(n):
                for i in t.labels:
                    straddling = sum(
                        1
                        for v, p in t.edges()
                        if i not in (v, p) and min(v, p) < i < max(v, p)
                    )
                    assert gap(t, i) == straddling

    def test_epsilon_cases(self):
        t = parse_tree("2(1,3)")
        assert epsilon(t, 2, 5, 3) == 0  # root
        assert epsilon(t, 1, 2, 2) == 0  # parent above: m - s
        assert epsilon(t, 3, 2, 2) == 1  # parent below: s - 1

    def test_epsilon_rejects_bad_root_label(self):
        with pytest.raises(TreeError):
            epsilon(parse_tree("1(2)"), 2, 2, 3)


class TestInVertices:
    def test_examples(self):
        t = parse_tree("2(1,3)")
        assert t.children(2) == (1, 3)
        assert t.children(1) == ()
        assert parse_tree(X_TEXT).children(3) == (4, 7)


MU = parse_tree("1(2)")
# every entry defined on standard trees only, with x in the place of one tree argument
STANDARD_ONLY = {
    "degree_bounds outer": lambda x: degree_bounds(x, 1, MU),
    "degree_bounds inner": lambda x: degree_bounds(MU, 1, x),
    "f_nap_map outer": lambda x: f_nap_map(x, 1, MU),
    "f_nap_map inner": lambda x: f_nap_map(MU, 1, x),
    "TreeSum._merge": lambda x: TreeSum(2, {x: 1}),
    "TreeSum.single": lambda x: TreeSum.single(x),
    "_scan": lambda x: list(_scan(x)),
    "split": lambda x: split(x, Witness(2, 3, 2)),
    "OperationTree": lambda x: OperationTree(x, (None, None)),
    "is_indecomposable": is_indecomposable,
    "factorize": factorize,
    "tree_to_json": tree_to_json,
    "act": lambda x: act({1: 1, 2: 2}, x),
    "compose_max outer": lambda x: compose_max(x, 1, MU),
    "compose_max inner": lambda x: compose_max(MU, 1, x),
    "compose_min outer": lambda x: compose_min(x, 1, MU),
    "compose_min inner": lambda x: compose_min(MU, 1, x),
    "compose_nap outer": lambda x: compose_nap(x, 1, MU),
    "compose_nap inner": lambda x: compose_nap(MU, 1, x),
    "graft_compose outer": lambda x: graft_compose(x, 1, MU, {2: 1}),
    "graft_compose inner": lambda x: graft_compose(MU, 1, x, {2: 1}),
    "compose_pl outer": lambda x: compose_pl(x, 1, MU),
    "compose_pl inner": lambda x: compose_pl(MU, 1, x),
    "min_term outer": lambda x: min_term(x, 1, MU),
    "min_term inner": lambda x: min_term(MU, 1, x),
    "max_term outer": lambda x: max_term(x, 1, MU),
    "max_term inner": lambda x: max_term(MU, 1, x),
    "decomposition_witnesses": decomposition_witnesses,
}


@pytest.mark.parametrize(
    "x",
    ["1(2)", order_relabel(parse_tree("1(2)"), [2, 3])],
    ids=["string", "labels 2,3"],
)
@pytest.mark.parametrize("entry", list(STANDARD_ONLY))
def test_standard_only_entries_reject_anything_else(entry, x):
    with pytest.raises(
        TreeError, match="is not (a LabelledRootedTree|standard: defined on standard trees only)"
    ):
        STANDARD_ONLY[entry](x)


# entries defined on any tree (or, for evaluate, on any word)
TREE_ENTRIES = {
    "degree": degree,
    "gap": lambda x: gap(x, 1),
    "restrict": lambda x: restrict(x, [1]),
    "order_relabel": lambda x: order_relabel(x, [1, 2]),
    "epsilon": lambda x: epsilon(x, 1, 2, 1),
    "full_subtree": lambda x: full_subtree(x, 1),
    "full_subtree list label": lambda x: full_subtree(x, [1]),  # the tree is checked first
    "graft_maps": lambda x: list(graft_maps(x, 1, 2)),
    "f_min_map": lambda x: f_min_map(x, 1, 2),
    "f_max_map": lambda x: f_max_map(x, 1, 2),
    "evaluate": evaluate,
}


@pytest.mark.parametrize("x", ["1(2)", None, 5, ("1", "2")], ids=["string", "None", "int", "tuple"])
@pytest.mark.parametrize("entry", list(TREE_ENTRIES))
def test_tree_entries_reject_anything_else(entry, x):
    with pytest.raises(TreeError, match="is not (a LabelledRootedTree|an OperationTree)"):
        TREE_ENTRIES[entry](x)


# every entry that takes a mapping, with x in its place
MAPPING_ENTRIES = {
    "LabelledRootedTree": LabelledRootedTree,
    "TreeSum": lambda x: TreeSum(2, x),
    "graft_compose": lambda x: graft_compose(MU, 1, MU, x),
    "act": lambda x: act(x, MU),
}


@pytest.mark.parametrize("x", [[1], [1, 2], "12", 5], ids=["list", "pair", "string", "int"])
@pytest.mark.parametrize("entry", list(MAPPING_ENTRIES))
def test_mapping_entries_reject_anything_else(entry, x):
    with pytest.raises(TreeError, match="is not a Mapping"):
        MAPPING_ENTRIES[entry](x)


@pytest.mark.parametrize("entry", ["graft_compose", "act"])
def test_mapping_entries_reject_none(entry):
    with pytest.raises(TreeError, match="None is not a Mapping"):
        MAPPING_ENTRIES[entry](None)


def test_evaluate_rejects_a_tree():
    with pytest.raises(TreeError, match="is not an OperationTree"):
        evaluate(parse_tree("1(2)"))
