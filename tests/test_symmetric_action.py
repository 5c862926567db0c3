"""The symmetric-group action as a checked property.

Rooted trees form symmetric operads under the pre-Lie composition
(Chapoton-Livernet) and the nap composition (Livernet): for a
permutation sigma of T's labels and tau of S's,

    (sigma.T) o_sigma(i) (tau.S) = (sigma o_i tau).(T o_i S),

where sigma o_i tau is the block permutation of T o_i S's labels.  The
max and min compositions choose their graft map by comparing labels,
so they give non-symmetric operads only, and the identity fails for
them.  Every instance is checked here; no check elsewhere uses the
symmetry to skip instances.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from operad_forge.trees import LabelledRootedTree, act, enumerate_trees
from operad_forge.prelie import TreeSum, compose_pl, compose_pl_linear
from operad_forge.set_operads import compose_max, compose_min, compose_nap

from conftest import standard_trees

SET = {"max": compose_max, "min": compose_min, "nap": compose_nap}
BASIS = {n: list(enumerate_trees(n)) for n in range(1, 5)}
PERMS = {n: list(itertools.permutations(range(1, n + 1))) for n in range(1, 5)}


def block(sigma, i, tau):
    """sigma o_i tau, from its definition, as a permutation of T o_i S's labels.

    A permutation is a tuple, sigma[v - 1] the image of v.  In T o_i S a
    vertex v != i of T has label v below i and v + m - 1 above it, and
    vertex u of S has label i - 1 + u.  In (sigma.T) o_sigma(i) (tau.S)
    they have sigma(v), plus m - 1 when above sigma(i), and
    sigma(i) - 1 + tau(u).
    """
    n, m, si = len(sigma), len(tau), sigma[i - 1]

    def moved(v):  # where T's vertex v lands
        return sigma[v - 1] if sigma[v - 1] < si else sigma[v - 1] + m - 1

    out = {v: moved(v) for v in range(1, i)}
    out.update({v + m - 1: moved(v) for v in range(i + 1, n + 1)})
    out.update({i - 1 + u: si - 1 + tau[u - 1] for u in range(1, m + 1)})
    return tuple(out[v] for v in range(1, n + m))


def composed(kind, staged, t, i, s):
    """T o_i S by the kind's plain call or by its stage; for pl a TreeSum."""
    if kind == "pl":
        if staged:
            return compose_pl_linear.at(TreeSum.single(t), i, s.n)(TreeSum.single(s))
        return compose_pl(t, i, s)
    compose = SET[kind]
    if staged:  # a set stage takes and returns parent tuples
        return LabelledRootedTree._from_par(compose.at(t._par, i, s.n)(s._par))
    return compose(t, i, s)


def acted(perm, x):
    """perm.x for a tree x, termwise for a TreeSum."""
    perm = dict(enumerate(perm, 1))
    if isinstance(x, TreeSum):
        return x.map_trees(lambda t: act(perm, t))
    return act(perm, x)


def holds(kind, staged, t, i, s, sigma, tau):
    lhs = composed(kind, staged, acted(sigma, t), sigma[i - 1], acted(tau, s))
    return lhs == acted(block(sigma, i, tau), composed(kind, staged, t, i, s))


def instances(max_arity):
    """Every (T, i, S, sigma, tau) with T o_i S of arity at most max_arity, tau fastest."""
    for n in range(1, max_arity + 1):
        for m in range(1, max_arity + 2 - n):
            for t, i, s in itertools.product(BASIS[n], range(1, n + 1), BASIS[m]):
                for sigma, tau in itertools.product(PERMS[n], PERMS[m]):
                    yield t, i, s, sigma, tau


def test_the_block_permutation_is_a_permutation():
    for n, m in itertools.product(range(1, 5), repeat=2):
        for i, sigma, tau in itertools.product(range(1, n + 1), PERMS[n], PERMS[m]):
            assert sorted(block(sigma, i, tau)) == list(range(1, n + m))
    # identities give the identity; sigma = (3, 1, 2) lifts S's block to the top, tau reverses it
    assert block((1, 2, 3), 2, (1, 2)) == (1, 2, 3, 4)
    assert block((3, 1, 2), 1, (2, 1)) == (4, 3, 1, 2)


@pytest.mark.parametrize("staged", [False, True], ids=["plain", "staged"])
@pytest.mark.parametrize("kind", ["nap", "pl"])
def test_the_action_commutes_with_the_symmetric_compositions(kind, staged):
    checked = 0
    for t, i, s, sigma, tau in instances(4):
        assert holds(kind, staged, t, i, s, sigma, tau), (str(t), i, str(s), sigma, tau)
        checked += 1
    assert checked == 9021


@pytest.mark.parametrize("kind", ["max", "min"])
def test_the_extremal_compositions_are_not_symmetric(kind):
    failed = [x for x in instances(4) if not holds(kind, False, *x)]
    assert len(failed) == 348
    t, i, s, sigma, tau = failed[0]
    assert (str(t), i, str(s), sigma, tau) == ("1(2)", 1, "1(2)", (1, 2), (2, 1))


@settings(deadline=None, max_examples=60)
@given(standard_trees(min_n=1, max_n=8), standard_trees(min_n=1, max_n=4), st.data())
def test_the_action_commutes_with_composition_on_larger_trees(t, s, data):
    i = data.draw(st.integers(min_value=1, max_value=t.n))
    sigma = tuple(data.draw(st.permutations(range(1, t.n + 1))))
    tau = tuple(data.draw(st.permutations(range(1, s.n + 1))))
    for staged in (False, True):
        assert holds("nap", staged, t, i, s, sigma, tau)
        if t.n <= 6 and s.n <= 3:  # compose_pl has up to s.n ** (t.n - 1) terms
            assert holds("pl", staged, t, i, s, sigma, tau)
