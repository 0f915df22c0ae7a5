"""The kernel stores never change an answer.

``posets._LEGS`` holds column fillings by induced sub-order,
``chromatic._STATES`` the coloring pass's states and
``chromatic._SINK_STATES`` the sink kernel's descent polynomials of the
acyclic orientations, both by induced, oriented subgraph, and
``graphs._PARTITION_STATES`` the stable-partition recursion's states by
induced subgraph; every case a process runs shares them.  Each test runs
a kernel over many cases with its store emptied before every case, shared
from empty, warmed by a first pass, or capped low so that it is cleared
between cases, in order, reversed and with the sizes interleaved, and
compares every answer with one that keeps no store.
"""

from collections import Counter
from functools import cache
from itertools import chain, zip_longest
from random import Random

import pytest

from chromsym import chromatic, cli, graphs, posets, symfunc
from chromsym.chromatic import _below, _coloring_counts, _sink_counts, csf_monomial, csf_schur, sink_profile
from chromsym.graphs import Graph, Labeling, complete_graph, path_graph, stable_partitions_by_type
from chromsym.posets import Poset, _hook_tableau_counts, all_posets
from oracles import (
    all_graphs,
    coloring_profile_pruned,
    count_p_tableaux_hook_brute,
    hook_tableau_counts_per_poset,
    less,
    seeded_graphs,
    seeded_relations,
    sink_counts_scan,
    sink_descent_counts_scan,
    stable_partitions_recursive,
)
from test_chromatic import _assert_coloring_profile_matches

RUNS = [
    ("in order", "emptied"),
    ("in order", "shared"),
    ("in order", "warm"),
    ("in order", "low cap"),
    ("reversed", "shared"),
    ("interleaved", "shared"),
    ("interleaved", "low cap"),
]


def _ordered(by_size: list[list], order: str) -> list:
    if order == "interleaved":  # one case of each size in turn
        return [case for group in zip_longest(*by_size) for case in group if case is not None]
    cases = list(chain.from_iterable(by_size))
    return cases[::-1] if order == "reversed" else cases


def _run(monkeypatch, module, store: str, cap: str, mode: str, cases, check) -> dict:
    """Run check on every case under mode, with a fresh store; return it."""
    monkeypatch.setattr(module, store, {})
    if mode == "low cap":
        monkeypatch.setattr(module, cap, 40)
    if mode == "warm":
        for case in cases:
            check(case)
    for case in cases:
        if mode == "emptied":
            getattr(module, store).clear()
        check(case)
    return getattr(module, store)


def _seeded_posets(sizes=(6, 7)):
    # the even-numbered relations only relate lower to higher indices
    for i, masks in enumerate(seeded_relations(12, seed=15, sizes=sizes)):
        if i % 2 == 0:
            n = len(masks)
            yield Poset.from_covers(n, [(a + 1, b + 1) for a in range(n) for b in range(n) if masks[a] >> b & 1])


def _brute_counts(poset) -> list[int]:
    def column_ok(lower, upper):
        return not less(poset, upper, lower)

    return [0] + [count_p_tableaux_hook_brute(poset, k, column_ok) for k in range(1, poset.n + 1)]


POSETS = [list(all_posets(n)) for n in range(6)]


@cache  # the oracles run when a test first needs them, not at collection
def _poset_oracle() -> dict:
    counts = {poset: hook_tableau_counts_per_poset(poset) for group in POSETS for poset in group}
    counts.update((poset, _brute_counts(poset)) for poset in SEEDED_POSETS)
    return counts


@pytest.mark.parametrize("order, mode", RUNS)
def test_tableau_counts_match_the_per_poset_kernel_on_every_small_poset(monkeypatch, order, mode):
    def check(poset):
        assert _hook_tableau_counts(poset) == _poset_oracle()[poset]

    store = _run(monkeypatch, posets, "_LEGS", "_LEGS_CAP", mode, _ordered(POSETS, order), check)
    assert store and all(type(value) is int for value in store.values())


SEEDED_POSETS = list(_seeded_posets())


@pytest.mark.parametrize("mode", ["shared", "warm", "low cap"])
def test_tableau_counts_match_the_permutation_oracle_on_seeded_posets(monkeypatch, mode):
    assert {poset.n for poset in SEEDED_POSETS} == {6, 7}
    cases = _ordered([POSETS[4], SEEDED_POSETS], "interleaved")

    def check(poset):
        assert _hook_tableau_counts(poset) == _poset_oracle()[poset]

    _run(monkeypatch, posets, "_LEGS", "_LEGS_CAP", mode, cases, check)


def test_posets_above_seven_elements_neither_read_nor_write_the_store(monkeypatch):
    monkeypatch.setattr(posets, "_LEGS", {})
    for poset in _seeded_posets(sizes=(8, 9, 10)):
        assert _hook_tableau_counts(poset) == hook_tableau_counts_per_poset(poset)
    assert posets._LEGS == {}


def test_posets_of_five_elements_share_5010_tableau_states_and_each_size_keys_its_own(monkeypatch):
    store = _CountingStore()
    monkeypatch.setattr(posets, "_LEGS", store)
    for poset in POSETS[5]:
        _hook_tableau_counts(poset)
    # one state per sub-order and lower cell met: a key that merged or split
    # states would change the count
    assert len(store) == len(store.writes) == 5010
    assert set(store.writes.values()) == {1}
    for poset in chain(*POSETS[1:5]):
        _hook_tableau_counts(poset)
    # the posets of 3 and 4 elements add their own 18 and 264 states: no key
    # of one size meets a key of another
    assert len(store) == len(store.writes) == 5292
    assert set(store.writes.values()) == {1}


def _zetas(n: int, rng: Random) -> list:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return [None, Labeling(range(n, 0, -1)), Labeling(labels)]


GRAPHS = [list(all_graphs(n)) for n in range(6)]
SEEDED_GRAPHS = [*seeded_graphs(6, seed=15), complete_graph(7), path_graph(8)]


@cache
def _graph_cases() -> dict:
    return {
        g: (dict(coloring_profile_pruned(g)), _zetas(g.n, Random(i)))
        for i, g in enumerate(chain(*GRAPHS, SEEDED_GRAPHS))
    }


def _check_graph(g):
    _coloring_counts.cache_clear()  # every call runs the kernel, not its lru_cache
    oracle, zetas = _graph_cases()[g]
    _assert_coloring_profile_matches(g, oracle, zetas)


def _assert_states_are_immutable(store: dict):
    assert store
    for value in store.values():
        assert type(value) is tuple
        keys, counts = value
        assert type(keys) is tuple and type(counts) is tuple and len(keys) == len(counts)
        assert all(type(item) is int for item in keys + counts)


@pytest.mark.parametrize("order, mode", RUNS)
def test_coloring_profiles_match_the_oracle_on_every_small_graph(monkeypatch, order, mode):
    store = _run(monkeypatch, chromatic, "_STATES", "_STATES_CAP", mode, _ordered(GRAPHS, order), _check_graph)
    _assert_states_are_immutable(store)


@pytest.mark.parametrize("mode", ["shared", "warm", "low cap"])
def test_coloring_profiles_match_the_oracle_on_seeded_graphs(monkeypatch, mode):
    assert {g.n for g in SEEDED_GRAPHS} == {6, 7, 8}
    cases = _ordered([GRAPHS[4], GRAPHS[5][::7], SEEDED_GRAPHS], "interleaved")
    store = _run(monkeypatch, chromatic, "_STATES", "_STATES_CAP", mode, cases, _check_graph)
    _assert_states_are_immutable(store)


def test_graphs_above_seven_vertices_neither_read_nor_write_the_store(monkeypatch):
    monkeypatch.setattr(chromatic, "_STATES", {})
    for g in SEEDED_GRAPHS[2::3]:  # 8 vertices
        _check_graph(g)
    assert chromatic._STATES == {}


class _CountingStore(dict):
    """A store that counts the writes to each key."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def test_a_sweep_of_five_vertices_computes_each_coloring_state_once(monkeypatch):
    store = _CountingStore()
    monkeypatch.setattr(chromatic, "_STATES", store)
    _coloring_counts.cache_clear()
    assert list(cli._sweep_results(5, ("chrompoly", "hook-t"), 1)) == [[]] * 1024
    # the 425 nonempty proper induced oriented subgraphs, and the empty one,
    # each computed once and then read from the store by every graph
    assert len(store) == 426
    assert len(store.writes) == 426 and set(store.writes.values()) == {1}
    # a whole graph's key keeps all five diagonal bits: none is stored
    diagonal = sum(1 << a * 5 + a for a in range(5))
    assert all(key & diagonal != diagonal for key in store)
    _assert_states_are_immutable(store)


# The sink oracle scans all 2^m edge directions: K7 is left out of its cases.
SCANNED_EDGES = 13
SINK_GRAPHS = [g for g in SEEDED_GRAPHS if g.m <= SCANNED_EDGES]


@cache
def _subset_dp_oracles() -> dict:
    return {
        g: (stable_partitions_recursive(g), sink_counts_scan(g) if g.m <= SCANNED_EDGES else None)
        for g in chain(*GRAPHS, SEEDED_GRAPHS)
    }


def _check_partitions(g):
    assert stable_partitions_by_type(g) == _subset_dp_oracles()[g][0]


def _check_sinks(g):
    sink_profile.cache_clear()
    _sink_counts.cache_clear()  # every call runs the kernel, not its lru_cache
    assert sink_profile(g).counts == _subset_dp_oracles()[g][1]


def _assert_sink_states_are_ints(store: dict):
    assert store and all(type(value) is int for value in store.values())


def _assert_partition_states_are_immutable(store: dict):
    assert store
    for value in store.values():
        assert type(value) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 and all(type(x) is int for x in pair) for pair in value)


@pytest.mark.parametrize("order, mode", RUNS)
def test_stable_partitions_match_the_oracle_on_every_small_graph(monkeypatch, order, mode):
    store = _run(
        monkeypatch, graphs, "_PARTITION_STATES", "_PARTITION_STATES_CAP", mode, _ordered(GRAPHS, order), _check_partitions
    )
    _assert_partition_states_are_immutable(store)


@pytest.mark.parametrize("mode", ["shared", "warm", "low cap"])
def test_stable_partitions_match_the_oracle_on_seeded_graphs(monkeypatch, mode):
    cases = _ordered([GRAPHS[4], GRAPHS[5][::7], SEEDED_GRAPHS], "interleaved")
    store = _run(monkeypatch, graphs, "_PARTITION_STATES", "_PARTITION_STATES_CAP", mode, cases, _check_partitions)
    _assert_partition_states_are_immutable(store)


@pytest.mark.parametrize("order, mode", RUNS)
def test_sink_counts_match_the_scan_on_every_small_graph(monkeypatch, order, mode):
    store = _run(monkeypatch, chromatic, "_SINK_STATES", "_SINK_STATES_CAP", mode, _ordered(GRAPHS, order), _check_sinks)
    _assert_sink_states_are_ints(store)


@pytest.mark.parametrize("mode", ["shared", "warm", "low cap"])
def test_sink_counts_match_the_scan_on_seeded_graphs(monkeypatch, mode):
    assert {g.n for g in SINK_GRAPHS} == {6, 7, 8}
    cases = _ordered([GRAPHS[4], GRAPHS[5][::7], SINK_GRAPHS], "interleaved")
    store = _run(monkeypatch, chromatic, "_SINK_STATES", "_SINK_STATES_CAP", mode, cases, _check_sinks)
    _assert_sink_states_are_ints(store)


def test_graphs_above_seven_vertices_leave_the_partition_and_sink_stores_empty(monkeypatch):
    monkeypatch.setattr(graphs, "_PARTITION_STATES", {})
    monkeypatch.setattr(chromatic, "_SINK_STATES", {})
    for g in SEEDED_GRAPHS[2::3]:  # 8 vertices
        _check_partitions(g)
        _check_sinks(g)
    assert graphs._PARTITION_STATES == {} and chromatic._SINK_STATES == {}


def test_two_labelings_that_orient_a_subgraph_differently_keep_two_sink_states(monkeypatch):
    # one edge and an isolated vertex: the reversed labeling turns the edge
    # of {1, 2} round and orients no other proper subset differently
    store = _CountingStore()
    monkeypatch.setattr(chromatic, "_SINK_STATES", store)
    g = Graph(3, [(1, 2)])
    for zeta in (None, Labeling((3, 2, 1))):
        _sink_counts.cache_clear()
        assert _sink_counts(g, tuple(_below(g, zeta))) == sink_descent_counts_scan(g, zeta)
    # the 6 nonempty proper subsets, and {1, 2} once more, oriented the other way
    assert len(store) == len(store.writes) == 7
    assert set(store.writes.values()) == {1}


def test_a_sweep_of_five_vertices_computes_each_partition_and_sink_state_once(monkeypatch):
    partitions, sinks = _CountingStore(), _CountingStore()
    monkeypatch.setattr(graphs, "_PARTITION_STATES", partitions)
    monkeypatch.setattr(chromatic, "_SINK_STATES", sinks)
    csf_monomial.cache_clear()  # the sweep reaches the partition DP through it
    sink_profile.cache_clear()
    _sink_counts.cache_clear()
    assert list(cli._sweep_results(5, ("hook-1", "e-sink", "hook-t"), 1)) == [[]] * 1024
    # The recursion removes a block holding the lowest vertex first, so the
    # proper sets it reaches are the ones without vertex 1: their
    # 1 + 4 + 6·2 + 4·8 + 64 = 113 induced subgraphs, each computed once.
    assert len(partitions) == len(partitions.writes) == 113
    assert set(partitions.writes.values()) == {1}
    assert all(not key & 1 for key in partitions)  # bit 0·5 + 0: vertex 1
    _assert_partition_states_are_immutable(partitions)
    # The sink kernel visits every set: the 425 nonempty proper induced
    # subgraphs, each oriented by index, as the sweep labels every graph;
    # hook-1, e-sink and hook-t's orientation sum read one kernel call.
    assert len(sinks) == len(sinks.writes) == 425
    assert set(sinks.writes.values()) == {1}
    _assert_sink_states_are_ints(sinks)
    # a whole graph's key keeps all five diagonal bits: neither store holds one
    diagonal = sum(1 << a * 5 + a for a in range(5))
    assert all(key & diagonal != diagonal for key in chain(partitions, sinks))


def test_a_sweep_of_five_vertices_expands_each_graph_in_schur_functions_once(monkeypatch):
    calls, m_to_s = [], symfunc.m_to_s

    def counted(f):
        calls.append(f)
        return m_to_s(f)

    monkeypatch.setattr(chromatic, "m_to_s", counted)
    monkeypatch.setattr(symfunc, "m_to_s", counted)  # the binding m_to_e reads
    csf_schur.cache_clear()
    assert list(cli._sweep_results(5, ("hook-1", "e-sink"), 1)) == [[]] * 1024
    assert len(calls) == 1024  # hook-1 and e-sink read one cached expansion
