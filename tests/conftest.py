import hypothesis.strategies as st

from operad_forge.trees import LabelledRootedTree, _prufer_parents, _reroot, act
from operad_forge.freeness import OperationTree


@st.composite
def standard_trees(draw, min_n=1, max_n=7):
    """Uniform random standard trees via Prüfer sequence plus root choice."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n == 1:
        return LabelledRootedTree({1: None})
    seq = draw(
        st.lists(
            st.integers(min_value=1, max_value=n), min_size=n - 2, max_size=n - 2
        )
    )
    root = draw(st.integers(min_value=1, max_value=n))
    return LabelledRootedTree._from_par(_reroot(_prufer_parents(seq, n), root))


def with_plain_stage(compose):
    """compose with the plain call as its stage, as every sweep takes a composition.

    A set stage takes and returns parent tuples, so the stage builds the
    trees for the plain call and hands back the result's parent tuple.
    """
    tree = LabelledRootedTree._from_par
    compose.at = lambda x, i, m: lambda y: compose(tree(x), i, tree(y))._par
    return compose


def reversed_tree(tree):
    """The label reversal r(v) = n + 1 - v of a standard tree."""
    n = tree.n
    return act({v: n + 1 - v for v in range(1, n + 1)}, tree)


def mirrored_word(word):
    """The word whose evaluation is r of word's: each generator reversed, slots right to left."""
    slots = (None if s is None else mirrored_word(s) for s in reversed(word.slots))
    return OperationTree(reversed_tree(word.node), tuple(slots))
