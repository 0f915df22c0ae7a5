"""No kernel leaves a reference cycle behind.

A recursion written as a nested function that calls itself refers to
itself through its closure, so the function, and every table the closure
holds, stays alive after the call until a cyclic collection.  Each kernel
breaks that cycle when its walk ends; with ``gc.DEBUG_SAVEALL`` set, the
collector keeps whatever it would have freed, so a chromsym function
found there is a cycle that was not broken.  ``standard_tableaux`` is an
oracle, so functions of ``oracles`` count too.
"""

import gc
from itertools import islice
from types import FunctionType

import pytest

from chromsym.chromatic import (
    _coloring_counts,
    _hook_polys,
    _order_counts,
    _sink_polys,
    dual_linear_extensions,
    sink_minimal_increasing_labeling,
)
from chromsym.graphs import (
    Graph,
    Labeling,
    acyclic_orientation_masks,
    acyclic_orientations,
    reference_orientation,
    stable_partitions_by_type,
)
from chromsym.partitions import partitions_of
from chromsym.posets import Poset, _hook_tableau_counts
from chromsym.symfunc import _schur_h_table
from chromsym.tableaux import _strip_removals
from oracles import standard_tableaux

GRAPH = Graph(6, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (4, 6), (5, 6)])
POSET = Poset.from_covers(6, [[1, 2], [1, 3], [2, 4], [3, 4], [4, 5]])
ORIENTATION = acyclic_orientations(GRAPH)[7]
BELOW = reference_orientation(GRAPH, Labeling([4, 1, 6, 2, 5, 3]))
GRAPH_7 = Graph(7, [(1, 2), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (5, 6), (5, 7), (6, 7)])
BELOW_7 = reference_orientation(GRAPH_7, Labeling([5, 2, 7, 1, 4, 6, 3]))
POSET_8 = Poset.from_covers(8, [[1, 2], [1, 3], [2, 4], [3, 4], [4, 5], [2, 6], [6, 7], [5, 8]])
GRAPH_8 = Graph(8, [(1, 2), (1, 5), (2, 3), (2, 6), (3, 4), (3, 7), (4, 8), (5, 6), (6, 7), (7, 8)])
BELOW_8 = reference_orientation(GRAPH_8, Labeling([3, 8, 1, 6, 2, 7, 4, 5]))

KERNELS = {
    # the cached kernels are called past their caches, so that each call walks
    "_coloring_profile": lambda: _coloring_counts.__wrapped__(GRAPH, BELOW),
    # the second call looks up every state of a proper subset that the first one stored
    "_coloring_profile, sub-states looked up in the store": lambda: [
        _coloring_counts.__wrapped__(GRAPH, BELOW) for _ in range(2)
    ],
    # above seven vertices the pass keeps a memo of its own
    "_coloring_profile, eight vertices": lambda: _coloring_counts.__wrapped__(GRAPH_8, BELOW_8),
    "_orientation_compositions": lambda: _order_counts.__wrapped__(GRAPH, BELOW),
    "_hook_polys": lambda: _hook_polys.__wrapped__(GRAPH_7, BELOW_7),
    # above seven vertices the DP keeps a memo of its own
    "_hook_polys, eight vertices": lambda: _hook_polys.__wrapped__(GRAPH_8, BELOW_8),
    "_sink_counts": lambda: _sink_polys.__wrapped__(GRAPH, BELOW),
    "stable_partitions_by_type": lambda: stable_partitions_by_type(GRAPH),
    "stable_partitions_by_type, sub-states looked up in the store": lambda: [
        stable_partitions_by_type(GRAPH) for _ in range(2)
    ],
    "stable_partitions_by_type, eight vertices": lambda: stable_partitions_by_type(GRAPH_8),
    "acyclic_orientation_masks": lambda: list(acyclic_orientation_masks(GRAPH)),
    "acyclic_orientation_masks, stopped early": lambda: list(islice(acyclic_orientation_masks(GRAPH), 3)),
    "dual_linear_extensions": lambda: dual_linear_extensions(
        ORIENTATION, sink_minimal_increasing_labeling(ORIENTATION)
    ),
    "_hook_tableau_counts": lambda: _hook_tableau_counts(POSET),
    "_hook_tableau_counts, sub-states looked up in the store": lambda: [_hook_tableau_counts(POSET) for _ in range(2)],
    # above seven elements the walk keeps a memo of its own
    "_hook_tableau_counts, eight elements": lambda: _hook_tableau_counts(POSET_8),
    "_schur_h_table": lambda: _schur_h_table.__wrapped__(6),
    "_strip_removals": lambda: list(_strip_removals((4, 3, 1), 3)),
    "_strip_removals, stopped early": lambda: list(islice(_strip_removals((4, 3, 1), 3), 1)),
    "standard_tableaux": lambda: standard_tableaux((3, 2)),
    "partitions_of": lambda: partitions_of.__wrapped__(6),
}


@pytest.mark.parametrize("name", KERNELS)
def test_the_kernel_leaves_no_chromsym_function_in_a_cycle(name):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert KERNELS[name]()
        gc.collect()
        leaked = [
            obj.__qualname__
            for obj in gc.garbage
            if isinstance(obj, FunctionType) and obj.__module__.startswith(("chromsym", "oracles"))
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
