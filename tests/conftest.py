import hypothesis.strategies as st

from operad_forge.trees import LabelledRootedTree, _prufer_parents, _reroot


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
    return _reroot(_prufer_parents(seq, n), root)
