"""Every tree factorized, and the words counted by their generator nodes.

Freeness on generators counted by G(y) = sum g_k y^k refines to
W = x + t G(W), where [x^n t^k] W counts the words of arity n with k
generator nodes.  At t = 1 this is beta(alpha) + x = alpha.  So
factorizing every tree of arity n and counting the nodes of its word
must give the polynomial [x^n] W.  Each tree is factorized, evaluated
back and its nodes checked to be generators, in one sweep over the
Prüfer ranks.
"""

from collections import Counter

import pytest

from operad_forge.trees import LabelledRootedTree, _free_tree, _reroot
from operad_forge.freeness import evaluate, factorize, is_indecomposable
from operad_forge.series import generator_series
from operad_forge.sweep import _sweep

ORDER = 6


def times(a, b):
    """The product of two series in x and t, {(x power, t power): coefficient}, to x^ORDER."""
    out = Counter()
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            if i + k <= ORDER:
                out[i + k, j + l] += c * d
    return out


def word_counts():
    """W = x + t G(W) to x^ORDER, by fixed-point iteration: each step fixes one more power of x."""
    g = generator_series(ORDER).coeffs
    w = Counter({(1, 0): 1})
    for _ in range(ORDER):
        power, new = Counter({(0, 0): 1}), Counter({(1, 0): 1})
        for k in range(1, ORDER + 1):
            power = times(power, w)
            for (n, j), c in power.items():
                new[n, j + 1] += g[k] * c
        w = new
    return w


W = word_counts()


def generator_nodes(word):
    """The generators at the nodes of a word."""
    stack, found = [word], []
    while stack:
        word = stack.pop()
        found.append(word.node)
        stack += [s for s in word.slots if s is not None]
    return found


def tally(n):
    """Trees of arity n by the generator nodes of their words, each word checked."""

    def count(rank):
        counts = Counter()
        par = _free_tree(rank, n)
        for root in range(1, n + 1):
            t = LabelledRootedTree._from_par(_reroot(par, root))
            word = factorize(t)
            assert evaluate(word) == t, str(t)
            nodes = generator_nodes(word)
            assert all(map(is_indecomposable, nodes)), str(t)
            counts[len(nodes)] += 1
        return counts

    return sum(_sweep(range(n ** (n - 2)), count), Counter())


@pytest.mark.parametrize("n", range(2, ORDER + 1))
def test_every_tree_factorizes_into_words_counted_by_generator_nodes(n):
    counts = tally(n)
    assert counts == {k: c for (m, k), c in W.items() if m == n and c}
    assert sum(counts.values()) == n ** (n - 1)


def test_the_word_counts_at_arity_six():
    assert {k: c for (m, k), c in W.items() if m == 6 and c} == {
        1: 1994, 2: 2142, 3: 1624, 4: 672, 5: 1344
    }
