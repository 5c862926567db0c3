"""Every entry point sized by a count (an arity or a series order) rejects
a count that is not an int, or is below its minimum, with the layer's
own error: TreeError for trees, SeriesError for series."""

import pytest

from operad_forge.trees import TreeError, enumerate_trees, parse_tree
from operad_forge.freeness import (
    find_collision,
    indecomposables,
    operation_trees,
    verify_freeness,
)
from operad_forge.prelie import (
    TreeSum,
    check_extremal_terms,
    f_max_map,
    f_min_map,
    graft_maps,
)
from operad_forge.set_operads import check_axioms
from operad_forge.series import (
    PowerSeries,
    SeriesError,
    cayley_series,
    generator_series,
    verify_functional_equation,
)

NOT_INTS = [2.5, 3.0, True, "3", [3]]
FORK = parse_tree("2(1,3)")

TREE_COUNTS = {
    "enumerate_trees": lambda n: next(enumerate_trees(n)),
    "indecomposables": indecomposables,
    "operation_trees": operation_trees,
    "verify_freeness": verify_freeness,
    "find_collision": lambda n: find_collision("min", n),
    "check_axioms": lambda n: check_axioms("max", n),
    "check_extremal_terms": check_extremal_terms,
    "TreeSum": TreeSum,
    # the arity of the inserted tree, for the children of vertex 2
    "graft_maps": lambda m: next(graft_maps(FORK, 2, m)),
    "f_min_map": lambda m: f_min_map(FORK, 2, m),
    "f_max_map": lambda m: f_max_map(FORK, 2, m),
}

SERIES_COUNTS = {
    "cayley_series": cayley_series,
    "generator_series": generator_series,
    "from_list": lambda n: PowerSeries.from_list([0, 1, 2], n),
    "identity": PowerSeries.identity,
    "zero": PowerSeries.zero,
    "truncate": lambda n: cayley_series(5).truncate(n),
    "verify_functional_equation": lambda n: verify_functional_equation(
        cayley_series(5), generator_series(5), n
    ),
}

CASES = (
    [(name, n, TreeError) for name in TREE_COUNTS for n in NOT_INTS]
    + [(name, 0, TreeError) for name in ("graft_maps", "f_min_map", "f_max_map", "TreeSum")]
    + [(name, n, SeriesError) for name in SERIES_COUNTS for n in NOT_INTS + [-1, -2]]
)


@pytest.mark.parametrize(
    "name,n,error", CASES, ids=[f"{name}-{n!r}" for name, n, _ in CASES]
)
def test_rejects_count_that_is_not_a_valid_int(name, n, error):
    call = {**TREE_COUNTS, **SERIES_COUNTS}[name]
    with pytest.raises(error):
        call(n)

