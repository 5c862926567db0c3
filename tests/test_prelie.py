import itertools
import os
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from operad_forge.trees import (
    LabelledRootedTree,
    TreeError,
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
    check_extremal_terms,
    check_pre_lie_relation,
    compose_pl,
    compose_pl_linear,
    degree_bounds,
    f_max_map,
    f_min_map,
    graft_compose,
    graft_maps,
    max_term,
    min_term,
    pre_lie_associator,
)
from operad_forge.set_operads import compose_max, compose_min, compose_nap, f_nap_map

from operad_forge import prelie
from operad_forge.sweep import _ENTRY_BYTES

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
                    assert graft_compose(t, i, unit, {k: 1 for k in t.children(i)}) == t

    def test_hand_simulated_chain(self):
        mu = parse_tree("1(2)")
        assert str(graft_compose(mu, 1, mu, {2: 2})) == "1(2(3))"

    def test_errors(self):
        with pytest.raises(TreeError):
            graft_compose(FORK, 5, CHAIN, {})
        with pytest.raises(TreeError):
            graft_compose(FORK, 2, CHAIN, {1: 1})  # not total
        with pytest.raises(TreeError):
            graft_compose(FORK, 2, CHAIN, {1: 1, 3: 3})  # target out of range

    @pytest.mark.parametrize("target", [1.5, "1", True])
    def test_rejects_target_that_is_not_an_int(self, target):
        with pytest.raises(TreeError):
            graft_compose(FORK, 2, parse_tree("1(2(3))"), {1: target, 3: 1})

    @pytest.mark.parametrize(
        "compose",
        [compose_pl, compose_max, compose_min, compose_nap, degree_bounds],
    )
    @pytest.mark.parametrize("i", [True, 1.0, "1"])
    def test_rejects_position_that_is_not_an_int(self, compose, i):
        mu = parse_tree("1(2)")
        with pytest.raises(TreeError):
            compose(mu, i, mu)


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
                        assert len(out) == m ** len(t.children(i))
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

    def test_string_format(self):
        out = compose_pl(FORK, 2, CHAIN)
        text = str(out)
        assert text == "1*3(1,2(4)) + 1*3(1,2,4) + 1*3(2(1),4) + 1*3(2(1,4))"

    def test_string_with_negative_terms(self):
        s = TreeSum.single(parse_tree("1(2)")) - 2 * TreeSum.single(parse_tree("2(1)"))
        assert str(s) == "1*1(2) - 2*2(1)"
        assert str(-1 * compose_pl(FORK, 2, CHAIN)) == (
            "-1*3(1,2(4)) - 1*3(1,2,4) - 1*3(2(1),4) - 1*3(2(1,4))"
        )
        s = TreeSum.single(CHAIN) - 3 * TreeSum.single(parse_tree("1(2)"))
        assert str(s) == "-3*1(2) + 1*2(1)"

    def test_zero_sum_prints_as_zero(self):
        assert str(TreeSum(3)) == "0"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TreeSum(2, {parse_tree("1(2)"): 1.5}),
            lambda: 1.5 * TreeSum.single(parse_tree("1(2)")),
            lambda: TreeSum(2, {parse_tree("1(2)"): True}),
            lambda: TreeSum(-1),
            lambda: TreeSum(3, {"x": 1}),
        ],
        ids=["float-term", "float-scalar", "bool-coefficient", "negative-arity",
             "term-not-a-tree"],
    )
    def test_rejects_what_is_not_an_integer_combination_of_trees(self, make):
        with pytest.raises(TreeError):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TreeSum.single("x"),
            lambda: TreeSum(2) + 3,
            lambda: TreeSum(2) - 3,
            lambda: compose_pl_linear(TreeSum(2), 1, "x"),
            lambda: compose_pl_linear("x", 1, TreeSum(2)),
            lambda: True * TreeSum.single(parse_tree("1(2)")),
        ],
        ids=["single-of-a-string", "add-an-int", "subtract-an-int", "linear-inner-string",
             "linear-outer-string", "bool-scalar"],
    )
    def test_rejects_operand_of_the_wrong_type(self, make):
        with pytest.raises(TreeError):
            make()

    def test_rejects_terms_of_another_arity(self):
        with pytest.raises(TreeError, match="has arity 2, expected 3"):
            TreeSum(3, {parse_tree("1(2)"): 1})
        with pytest.raises(TreeError, match="different arities"):
            TreeSum.single(parse_tree("1(2)")) + TreeSum.single(parse_tree("1"))


@st.composite
def coefficient_dicts(draw, max_n=4):
    """Two {tree: coefficient} dicts of one arity over a pool of at most 3
    trees, coefficients in -3..3, so that terms collide and cancel."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = draw(st.lists(standard_trees(min_n=n, max_n=n), min_size=1, max_size=3))
    coeffs = st.dictionaries(st.sampled_from(pool), st.integers(-3, 3), max_size=3)
    return n, pool, draw(coeffs), draw(coeffs)


def nonzero(coeffs):
    return {t: c for t, c in coeffs.items() if c}


class TestTreeSumAgainstDicts:
    """Every TreeSum operation against the same operation on plain dicts."""

    @given(coefficient_dicts(), st.integers(-3, 3))
    @settings(max_examples=100)
    def test_operations(self, drawn, k):
        n, pool, da, db = drawn
        a, b = TreeSum(n, da), TreeSum(n, db)
        both = da.keys() | db.keys()
        assert dict(a.terms()) == nonzero(da)
        added = {t: da.get(t, 0) + db.get(t, 0) for t in both}
        assert dict((a + b).terms()) == nonzero(added)
        subtracted = {t: da.get(t, 0) - db.get(t, 0) for t in both}
        assert dict((a - b).terms()) == nonzero(subtracted)
        assert dict((-a).terms()) == nonzero({t: -c for t, c in da.items()})
        assert dict((k * a).terms()) == nonzero({t: k * c for t, c in da.items()})

        def image(t):  # sends several trees to one, so images collide
            return pool[degree(t) % len(pool)]

        mapped: dict = {}
        for t, c in da.items():
            mapped[image(t)] = mapped.get(image(t), 0) + c
        assert dict(a.map_trees(image).terms()) == nonzero(mapped)


@st.composite
def tree_sums(draw, n):
    """Mixed-sign sums of arity n, built with TreeSum's own + and -."""
    total = TreeSum(n)
    terms = st.tuples(standard_trees(min_n=n, max_n=n), st.integers(-3, 3))
    for t, c in draw(st.lists(terms, max_size=4)):
        total = total + c * TreeSum.single(t)
        if draw(st.booleans()):  # cancel the term again, down to zero at times
            total = total - c * TreeSum.single(t)
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

    @pytest.mark.parametrize(
        "a,i,message",
        [
            (TreeSum(3), 99, "position 99 out of range for arity 3"),
            (TreeSum.single(parse_tree("1(2)")), 99, "position 99 out of range for arity 2"),
            (TreeSum(3), "x", "position 'x' out of range for arity 3"),
        ],
        ids=["zero-sum", "one-term", "not-an-int"],
    )
    def test_rejects_bad_position_even_for_a_zero_sum(self, a, i, message):
        with pytest.raises(TreeError, match=re.escape(message)):
            compose_pl_linear(a, i, TreeSum(2))

    def test_the_composition_is_sized_before_it_is_built(self, monkeypatch):
        # 1 has two children in one term of a and one in the other, and b has two terms:
        # 2 * (3^2 + 3^1) terms, refused one byte short of their estimate, else built
        a = TreeSum(3, {parse_tree("1(2,3)"): 1, parse_tree("1(3(2))"): 1})
        b = TreeSum(3, {parse_tree("1(2,3)"): 1, parse_tree("2(1,3)"): -1})
        need = 24 * _ENTRY_BYTES["term"]
        for memory, refused in ((need - 1, True), (need, False)):
            sizes = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
            monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
            if refused:
                with pytest.raises(TreeError, match="the composition has at least 24 terms"):
                    compose_pl_linear(a, 1, b)
                # the stage the pl axiom sweep uses is sized by that sweep, not here
                assert len(compose_pl_linear.at(a, 1, 3)(b)) == 24
            else:
                assert len(compose_pl_linear(a, 1, b)) == 24


def mixed_sign_sum(n):
    """Every tree of arity n, with coefficients 1, -2, 3, -1, 2, -3, ..."""
    steps = [1, -2, 3, -1, 2, -3]
    return TreeSum(n, {t: steps[k % 6] for k, t in enumerate(enumerate_trees(n))})


def every_tree_once(n):
    """Every tree of arity n, each with coefficient 1."""
    return TreeSum(n, dict.fromkeys(enumerate_trees(n), 1))


class TestLinearCancellation:
    """compose_pl_linear on mixed-sign sums, every arity pair up to 3.

    T o_i S determines T, S and the graft map (the block i..i+m-1
    induces S, and contracting it gives T), so inside one linear
    composition no two (t, s) pairs share a term.  Opposite signs meet
    when two compositions are added, and there they must cancel.
    """

    @pytest.mark.parametrize("n,m", list(itertools.product(range(1, 4), repeat=2)))
    @pytest.mark.parametrize("coefficients", ["mixed", "ones"])
    def test_matches_bilinear_expansion(self, n, m, coefficients):
        # with every coefficient 1, many terms of a share one (parent of i, coefficient)
        # group of the staged pl composition, and so one spliced S
        a = mixed_sign_sum(n) if coefficients == "mixed" else every_tree_once(n)
        b = mixed_sign_sum(m)
        t0, c0 = a.terms()[0]
        rest = a - c0 * TreeSum.single(t0)
        for i in range(1, n + 1):
            out = compose_pl_linear(a, i, b)
            expected = TreeSum(n + m - 1)
            for t, ct in a.terms():
                for s, cs in b.terms():
                    expected = expected + (ct * cs) * compose_pl(t, i, s)
            assert out == expected
            assert all(c for _, c in out.terms())
            assert len(out) == sum(m ** len(t.children(i)) for t, _ in a.terms()) * len(b)
            # the terms of -rest meet those of a with opposite signs: only t0's stay
            left = out + compose_pl_linear(-rest, i, b)
            assert left == compose_pl_linear(c0 * TreeSum.single(t0), i, b)
            assert all(c for _, c in left.terms())
            assert (out - compose_pl_linear(a, i, b)).is_zero()


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

    def test_rejects_tree_that_is_not_standard(self):
        shifted = order_relabel(parse_tree("1(2)"), [2, 3])
        with pytest.raises(TreeError, match="defined on standard trees"):
            compose_max(shifted, 1, parse_tree("1"))

    def test_no_children_min_equals_max(self):
        mu = parse_tree("1(2)")
        assert min_term(mu, 2, mu) == max_term(mu, 2, mu)

    def test_exhaustive_small(self):
        assert check_extremal_terms(3) == []

    def test_the_case_list_is_sized_before_any_tree_is_enumerated(self, monkeypatch):
        # arity 3 checks 1 + 2^2 + 3^3 = 32 (T, i) cases: refused one byte short of their
        # estimate before a tree is enumerated, else run
        enumerated = []
        plain_enumerate = prelie.enumerate_trees
        monkeypatch.setattr(
            prelie, "enumerate_trees", lambda m: enumerated.append(m) or plain_enumerate(m))
        need = 32 * _ENTRY_BYTES["case"]
        for memory, refused in ((need - 1, True), (need, False)):
            sizes = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
            monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
            if refused:
                with pytest.raises(TreeError, match=re.escape("checks at least 32 (T, i) cases")):
                    check_extremal_terms(3)
                assert enumerated == []
            else:
                assert check_extremal_terms(3) == []
                assert enumerated == [1, 2, 3]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failures_are_reported_in_loop_order(self, monkeypatch, threads):
        monkeypatch.setenv("OPERAD_FORGE_THREADS", threads)
        monkeypatch.setattr(prelie, "max_term", prelie.min_term)
        failures = check_extremal_terms(3)
        assert len(failures) == 187
        assert failures[0] == "T=1(2) i=1 S=1(2) bounds=(2,3) degrees=[2, 3]"

    @pytest.mark.parametrize("max_arity", [1, 0, -2])
    def test_rejects_arity_below_two(self, max_arity):
        with pytest.raises(TreeError, match="max_arity must be at least 2"):
            check_extremal_terms(max_arity)

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

    @settings(deadline=None)
    @given(standard_trees(max_n=20), standard_trees(max_n=20), st.data())
    def test_extremal_terms_attain_bounds(self, t, s, data):
        # compose_pl has too many terms at this size: check the two ends
        i = data.draw(st.integers(min_value=1, max_value=t.n))
        lo, hi = degree_bounds(t, i, s)
        assert degree(min_term(t, i, s)) == lo and degree(max_term(t, i, s)) == hi

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_every_case_fails_when_the_bounds_are_off_by_one(self, monkeypatch, threads):
        # keeps the bound comparison live: the sweep must not trust its own degree table
        monkeypatch.setenv("OPERAD_FORGE_THREADS", threads)
        bounds_at = prelie.degree_bounds.at

        def raised_lo_at(t, i, m):
            at = bounds_at(t, i, m)
            return lambda s: (at(s)[0] + 1, at(s)[1])

        monkeypatch.setattr(prelie.degree_bounds, "at", raised_lo_at)
        failures = check_extremal_terms(3)
        assert len(failures) == 384  # every (T, i, S) with both arities <= 3
        assert failures[0] == "T=1 i=1 S=1 bounds=(1,0) degrees=[0]"
        form = re.compile(r"T=\S+ i=\d+ S=\S+ bounds=\((\d+),(\d+)\) degrees=\[([\d, ]+)\]")
        for line in failures:
            lo, hi, listed = form.fullmatch(line).groups()
            degs = [int(d) for d in listed.split(", ")]
            assert degs == sorted(degs) and degs[0] == int(lo) - 1 and degs[-1] == int(hi)

    def test_the_sweep_builds_the_bounds_once_per_stage(self, monkeypatch):
        monkeypatch.setenv("OPERAD_FORGE_THREADS", "1")
        calls = []
        plain_gap = prelie.gap
        monkeypatch.setattr(prelie, "gap", lambda t, i: calls.append((t, i)) or plain_gap(t, i))
        assert check_extremal_terms(4) == []
        # 288 (T, i) times 4 arities of S; one bounds call per S made 21 888
        assert len(calls) == 1152


class TestDegreeBoundsOracle:
    """Each layer under the extremal sweep against its literal definition."""

    @staticmethod
    def edge_sum(t):
        return sum(abs(v - p) for v, p in t.edges())

    def test_degree_of_every_small_tree(self):
        for n in range(1, 7):
            for t in enumerate_trees(n):
                assert degree(t) == self.edge_sum(t), str(t)

    def test_degree_of_trees_that_are_not_standard(self):
        trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
        for t in trees:
            sparse = order_relabel(t, [3 * v + 7 for v in range(t.n)])
            pieces = [full_subtree(t, c) for c in t.labels] + list(restrict(t, t.labels[1:] or [1]))
            for u in (sparse, *pieces):
                assert degree(u) == self.edge_sum(u), str(u)
        assert degree(sparse) == 3 * degree(t)  # labels 3v + 7 triple every edge length

    @pytest.mark.parametrize("labels", [range(1, 1201), range(1200, 0, -1)], ids=["up", "down"])
    def test_degree_of_the_deep_chain(self, labels):
        chain = parse_tree("(".join(map(str, labels)) + ")" * 1199)
        assert degree(chain) == self.edge_sum(chain) == 1199

    def test_bounds_of_every_triple_to_arity_four(self):
        basis = {m: list(enumerate_trees(m)) for m in range(1, 5)}
        cases = 0
        for n, m in itertools.product(basis, repeat=2):
            for t, i in itertools.product(basis[n], range(1, n + 1)):
                at = degree_bounds.at(t._par, i, m)
                for s in basis[m]:
                    lo = degree(t) + degree(s) + gap(t, i) * (m - 1) + epsilon(t, i, m, s.root)
                    expected = (lo, lo + len(t.children(i)) * (m - 1))
                    assert at(s._par) == degree_bounds(t, i, s) == expected, (str(t), i, str(s))
                    cases += 1
        assert cases == 21888

    @pytest.mark.parametrize("i", [0, 4, "2", 2.0, True])
    def test_the_stage_rejects_a_position_when_built(self, i):
        with pytest.raises(TreeError, match="out of range for arity 3"):
            degree_bounds.at(FORK._par, i, 2)

    @pytest.mark.parametrize("m", ["2", 2.0, True, 0])
    def test_the_stage_rejects_an_arity_that_is_not_a_count_when_built(self, m):
        with pytest.raises(TreeError, match="must be an integer|arity at least 1"):
            degree_bounds.at(FORK._par, 2, m)

    def test_the_stage_rejects_an_inserted_tree_of_another_arity_when_applied(self):
        at = degree_bounds.at(FORK._par, 2, 2)
        for s in (FORK, parse_tree("1")):
            with pytest.raises(TreeError, match=f"has arity {s.n}, expected 2"):
                at(s._par)
        assert at(CHAIN._par) == (3, 5)

    @pytest.mark.parametrize("x", ["1(2)", (0, 1), None], ids=["text", "parent-tuple", "none"])
    def test_the_plain_call_rejects_an_operand_that_is_not_a_tree(self, x):
        # the stage trusts its tuples; the type checks live on the plain call
        with pytest.raises(TreeError, match="is not a LabelledRootedTree"):
            degree_bounds(FORK, 2, x)
        with pytest.raises(TreeError, match="is not a LabelledRootedTree"):
            degree_bounds(x, 1, FORK)


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
            pieces = restrict(t, rest) if rest else ()
            for part in (sub, *pieces):
                std = order_relabel(part, range(1, part.n + 1))
                same_labels = part.labels == std.labels
                assert part.is_standard == same_labels
                assert (part == std) == same_labels
                if same_labels:
                    assert hash(part) == hash(std)


class TestKernelOracleExhaustive:
    """Every (T, i, S) of arity <= 3, with every graft map, against the definition."""

    def test_every_triple_and_graft_map(self):
        trees = [t for n in range(1, 4) for t in enumerate_trees(n)]
        cases = {"i is the root": 0, "i is not the root": 0}
        for t, s in itertools.product(trees, repeat=2):
            m = s.n
            for i in range(1, t.n + 1):
                if i == t.root:  # S's root takes i's place as the root
                    root, case = s.root + i - 1, "i is the root"
                else:  # T's root stays the root, shifted when above i
                    root, case = (t.root if t.root < i else t.root + m - 1), "i is not the root"
                cases[case] += 1
                expected = {}
                for f in graft_maps(t, i, m):
                    term = reference_graft(t, i, s, f)
                    got = graft_compose(t, i, s, f)
                    assert got == term and got.root == term.root == root
                    expected[term] = expected.get(term, 0) + 1
                pl = compose_pl(t, i, s)
                assert pl == TreeSum(t.n + m - 1, expected)
                assert all(u.root == root for u in pl.trees())
                for compose, f in (
                    (min_term, f_min_map(t, i, m)),
                    (max_term, f_max_map(t, i, m)),
                    (compose_nap, f_nap_map(t, i, s)),
                ):
                    got = compose(t, i, s)
                    assert got == reference_graft(t, i, s, f) and got.root == root
        assert cases == {"i is the root": 144, "i is not the root": 240}
