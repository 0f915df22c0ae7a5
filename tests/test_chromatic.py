import pickle
from collections import Counter
from itertools import permutations
from math import comb, factorial
from random import Random

import pytest

from chromsym import chromatic, cli
from chromsym.chromatic import (
    SinkProfile,
    _coloring_counts,
    _coloring_profile,
    _hook_polys,
    _order_counts,
    _orientation_compositions,
    _sink_polys,
    chromatic_polynomial_via_colorings,
    cqf_fundamental_via_orientations,
    cqf_monomial,
    csf_monomial,
    csf_schur,
    dual_linear_extensions,
    hook_coefficients_via_colorings_t,
    hook_coefficients_via_extensions_t,
    hook_coefficients_via_orientations_t,
    hook_coefficient_via_sinks,
    sink_minimal_increasing_labeling,
    sink_profile,
)
from chromsym.graphs import (
    Graph,
    Labeling,
    Orientation,
    acyclic_orientation_masks,
    acyclic_orientations,
    complete_graph,
    edgeless_graph,
    path_graph,
    reference_orientation,
    star_graph,
)
from chromsym.partitions import _descent_mask, composition_from_descents, hook_partition
from chromsym.symfunc import (
    QuasisymmetricF,
    collapse_t,
    is_symmetric,
    qsym_M_to_F,
)
from chromsym.tpoly import TPoly
from oracles import (
    acyclic_orientations_scan,
    all_graphs,
    chromatic_polynomial_by_colorings,
    chromatic_polynomial_value,
    coloring_profile_pruned,
    coloring_profile_unpruned,
    count_colorings_brute,
    csf_monomial_by_colorings,
    descent_set,
    descents,
    extension_words,
    hook_coefficient_of_F,
    monomial_to_quasi,
    orientation_compositions_by_words,
    seeded_graphs,
    sink_counts,
    sink_counts_scan,
    sink_descent_counts_scan,
    sink_histogram,
    sink_minimal_labels,
)

CLAW = star_graph(3)


def test_csf_monomial_golden_values():
    assert csf_monomial(CLAW).coeffs == {(3, 1): 1, (2, 1, 1): 6, (1, 1, 1, 1): 24}
    assert csf_monomial(edgeless_graph(3)).coeffs == {(3,): 1, (2, 1): 3, (1, 1, 1): 6}
    assert csf_monomial(Graph(1)).coeffs == {(1,): 1}


@pytest.mark.parametrize("n", range(1, 6))
def test_csf_monomial_agrees_with_direct_coloring_sum(n):
    for g in all_graphs(n):
        assert csf_monomial(g) == csf_monomial_by_colorings(g)


@pytest.mark.parametrize("n", range(0, 6))
def test_coloring_count_matches_brute_force(n):
    # n = 0 too: the empty graph has exactly one coloring, with any k.
    for g in all_graphs(n):
        brute = [count_colorings_brute(g, k) for k in range(n + 2)]
        assert [chromatic_polynomial_by_colorings(g, k) for k in range(n + 2)] == brute
        assert list(chromatic_polynomial_via_colorings(g)) == brute[: n + 1]


def _zetas(n, rng=None):
    """No labeling, the reversed one, and with rng a random one."""
    zetas = [None, Labeling(range(n, 0, -1))]
    if rng is not None:
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        zetas.append(Labeling(labels))
    return zetas


def _ascents(g, zeta, bits):
    """The ascents under zeta of a coloring with the oracles' direction
    bits: bit e is set when edge e runs from its lower color to its higher
    one along its canonical (low -> high vertex) direction."""
    return sum(
        (bits >> e & 1) == (zeta is None or zeta.label(a) < zeta.label(b)) for e, (a, b) in enumerate(g.edges)
    )


def _assert_coloring_profile_matches(g, oracle, zetas):
    for zeta in zetas:
        profile = _coloring_profile(g, reference_orientation(g, zeta))
        # one entry per distinct pair, in a fixed order: the bytes of every
        # verb that reads the profile must not depend on dict insertion order
        keys = [(_descent_mask(comp), asc) for (comp, asc), _ in profile]
        assert keys == sorted(set(keys))
        expected: Counter = Counter()
        for (comp, bits), count in oracle.items():
            expected[comp, _ascents(g, zeta, bits)] += count
        assert dict(profile) == expected


@pytest.mark.parametrize("n", range(6))
def test_coloring_profile_matches_the_unpruned_recursion(n):
    rng = Random(n)
    for g in all_graphs(n):
        _assert_coloring_profile_matches(g, Counter(coloring_profile_unpruned(g)), _zetas(n, rng))


def test_coloring_profile_matches_the_unpruned_recursion_on_seeded_graphs_and_k7():
    # one graph each on 6, 7 and 8 vertices: the oracle visits up to n^n colorings
    rng = Random(21)
    for g in [*seeded_graphs(3, seed=21), complete_graph(7)]:
        _assert_coloring_profile_matches(g, Counter(coloring_profile_unpruned(g)), _zetas(g.n, rng))


def test_coloring_profile_matches_the_pruned_recursion_on_graphs_with_8_vertices():
    # out of the unpruned oracle's reach: it tries up to 8^8 colorings per graph
    cycle_8 = Graph(8, [*path_graph(8).edges, (1, 8)])
    graphs = [path_graph(8), cycle_8, star_graph(7), edgeless_graph(8), complete_graph(8)]
    rng = Random(34)
    for g in [*graphs, *seeded_graphs(3, seed=34, sizes=(8,))]:
        _assert_coloring_profile_matches(g, dict(coloring_profile_pruned(g)), _zetas(8, rng))


def _assert_orientation_compositions_match_the_oracle(g, zetas):
    # The walk over vertex orders meets each acyclic orientation through its
    # linear extensions; the oracle lists the orientations themselves and
    # reads the words of their extensions.
    words = [(Orientation.from_mask(g, mask), counts) for mask, counts in orientation_compositions_by_words(g)]
    for zeta in zetas:
        entries = _orientation_compositions(g, reference_orientation(g, zeta))
        keys = [(_descent_mask(comp), des) for (comp, des), _ in entries]
        assert keys == sorted(set(keys))
        labels = zeta or Labeling.identity(g.n)
        expected: Counter = Counter()
        for o, counts in words:
            for comp, count in counts:
                expected[comp, descents(o, labels)] += count
        assert dict(entries) == expected
        assert sum(count for _, count in entries) == factorial(g.n)


@pytest.mark.parametrize("n", range(6))
def test_orientation_compositions_match_the_word_oracle(n):
    rng = Random(n)
    for g in all_graphs(n):
        _assert_orientation_compositions_match_the_oracle(g, _zetas(n, rng))


def test_orientation_compositions_match_the_word_oracle_on_seeded_graphs_and_k7():
    rng = Random(21)
    for g in [*seeded_graphs(6, seed=21), complete_graph(7)]:
        _assert_orientation_compositions_match_the_oracle(g, _zetas(g.n, rng))


def _hook_orders(g, zeta) -> list[Counter]:
    """Entry k - 1 counts the orders of the hook DP with tail k by
    descents, decoded digit by digit from its packed polynomials."""
    width, polys = _hook_polys(g, reference_orientation(g, zeta))
    digit, by_k = (1 << width) - 1, []
    for h in polys:
        row, d = Counter(), 0
        while h:
            if h & digit:
                row[d] = h & digit
            h, d = h >> width, d + 1
        by_k.append(row)
    return by_k


def _full_walk_hooks(g, zeta) -> list[Counter]:
    """Entry k - 1 counts the orders of the full walk whose composition is
    the hook (k, 1^(n-k)) by descents."""
    hooks = {hook_partition(g.n, k): k for k in range(1, g.n + 1)}
    by_k = [Counter() for _ in range(g.n)]
    for (comp, des), count in _orientation_compositions(g, reference_orientation(g, zeta)):
        if comp in hooks:
            by_k[hooks[comp] - 1][des] += count
    return by_k


def _assert_hook_walk_matches_the_full_walk(g, zetas):
    # The hook DP counts the orders of the full walk whose composition is a
    # hook, each with the descents of its orientation, without walking one.
    n = g.n
    for zeta in zetas:
        below = reference_orientation(g, zeta)
        by_k = _hook_orders(g, zeta)
        assert by_k == _full_walk_hooks(g, zeta)
        # the sink kernel counts the same orientations, 2^(sinks - 1) hook
        # orders each, exactly one of them falling all the way (k = 1)
        expected_falling: Counter = Counter()
        expected_orders: Counter = Counter()
        for (sinks, des), count in sink_counts(g, below):
            expected_falling[des] += count
            expected_orders[des] += 2 ** (sinks - 1) * count
        assert by_k[0] == expected_falling
        assert sum(by_k, Counter()) == expected_orders
        full = cqf_fundamental_via_orientations(g, below)
        walked = hook_coefficients_via_extensions_t(g, below)
        assert walked == tuple(hook_coefficient_of_F(full, k) for k in range(1, n + 1))


@pytest.mark.parametrize("n", range(1, 6))
def test_hook_walk_matches_the_full_walk(n):
    rng = Random(40 + n)
    for g in all_graphs(n):
        _assert_hook_walk_matches_the_full_walk(g, _zetas(n, rng))


def test_hook_walk_matches_the_full_walk_on_seeded_graphs_and_k8():
    rng = Random(12)
    for g in [*seeded_graphs(8, seed=12, sizes=(6, 7)), complete_graph(8)]:
        _assert_hook_walk_matches_the_full_walk(g, _zetas(g.n, rng))


@pytest.mark.parametrize("family", [complete_graph, path_graph])
def test_the_hook_dp_needs_at_most_n_2_to_the_n_states_on_k_n_and_path_n(monkeypatch, family):
    # ROADMAP item 2's bound: the DP's states, not the n! orders, set its cost
    stores, shared_states = [], chromatic._shared_states

    def spy(store, cap, masks):
        states = shared_states(store, cap, masks)
        stores.append(states[0])
        return states

    monkeypatch.setattr(chromatic, "_shared_states", spy)
    monkeypatch.setattr(chromatic, "_ORDER_STATES", {})
    counts = []
    for n in range(1, 13):
        chromatic._ORDER_STATES.clear()
        _hook_polys.cache_clear()
        g = family(n)
        _hook_polys(g, reference_orientation(g))
        counts.append(len(stores.pop()))
    assert all(count <= n * 2**n for n, count in enumerate(counts, 1))
    assert counts[9] == (2815 if family is complete_graph else 5563)  # K10 and path_10


def _assert_hook_t_rows_match_the_full_transforms(g, zetas):
    # Each value of a hook-t row against the route it stands for, computed
    # in full: the F-expansion of the full walk, the binomial sum over the
    # acyclic orientations listed one by one, and the M -> F transform of
    # every composition of the coloring route.
    n = g.n
    for zeta in zetas:
        below = reference_orientation(g, zeta)
        walked = cqf_fundamental_via_orientations(g, below)
        converted = qsym_M_to_F(cqf_monomial(g, below))
        labels = zeta or Labeling.identity(n)
        oriented = [(o.sinks(), descents(o, labels)) for o in acyclic_orientations(g)]
        expected = []
        for k in range(1, n + 1):
            arr = [0] * (g.m + 1)
            for sinks, des in oriented:
                arr[des] += comb(sinks - 1, k - 1)
            expected.append((k, hook_coefficient_of_F(walked, k), TPoly(arr), hook_coefficient_of_F(converted, k)))
        assert cli.CHECKS["hook-t"].rows(g, below) == expected
        assert all(a == b == c for _, a, b, c in expected)  # the routes agree


@pytest.mark.parametrize("n", range(6))
def test_hook_t_rows_match_the_full_transforms(n):
    rng = Random(30 + n)
    for g in all_graphs(n):
        _assert_hook_t_rows_match_the_full_transforms(g, _zetas(n, rng))


def test_hook_t_rows_match_the_full_transforms_on_seeded_graphs_and_k7():
    rng = Random(31)
    for g in [*seeded_graphs(6, seed=31, sizes=(6, 7)), complete_graph(7)]:
        _assert_hook_t_rows_match_the_full_transforms(g, _zetas(g.n, rng))


def test_the_hook_t_readers_give_no_terms_on_the_empty_graph():
    g = Graph(0)
    assert reference_orientation(g) == ()
    assert hook_coefficients_via_extensions_t(g, ()) == ()
    assert hook_coefficients_via_colorings_t(g, ()) == ()
    assert hook_coefficients_via_orientations_t(g, ()) == ()
    assert cli.CHECKS["hook-t"].rows(g, ()) == []


def test_the_route_kernels_are_cached_on_the_orientation_the_labeling_induces():
    # Centre 1 has the smallest label under both labelings, so both orient
    # every edge of the claw the same way.
    first, second = Labeling([1, 2, 3, 4]), Labeling([1, 4, 2, 3])
    turned = Labeling([2, 1, 3, 4])
    omitted, one, two, other = (reference_orientation(CLAW, zeta) for zeta in (None, first, second, turned))
    assert one == two != other
    _coloring_counts.cache_clear()
    _order_counts.cache_clear()
    _hook_polys.cache_clear()
    _sink_polys.cache_clear()
    assert _coloring_profile(CLAW, one) == _coloring_profile(CLAW, two)
    assert _coloring_counts(CLAW, one) is _coloring_counts(CLAW, two)
    assert _orientation_compositions(CLAW, one) == _orientation_compositions(CLAW, two)
    assert _order_counts(CLAW, one) is _order_counts(CLAW, two)
    assert hook_coefficients_via_extensions_t(CLAW, one) == hook_coefficients_via_extensions_t(CLAW, two)
    assert _hook_polys(CLAW, one) is _hook_polys(CLAW, two)
    assert hook_coefficients_via_orientations_t(CLAW, one) == hook_coefficients_via_orientations_t(CLAW, two)
    assert _coloring_counts.cache_info().misses == 1
    assert _order_counts.cache_info().misses == 1
    assert _hook_polys.cache_info().misses == 1
    assert _sink_polys.cache_info().misses == 1
    # a labeling that turns an edge round is a new entry
    assert _coloring_profile(CLAW, other) != _coloring_profile(CLAW, one)
    assert _orientation_compositions(CLAW, other) != _orientation_compositions(CLAW, one)
    assert hook_coefficients_via_extensions_t(CLAW, other) != hook_coefficients_via_extensions_t(CLAW, one)
    assert _coloring_counts.cache_info().misses == 2
    assert _order_counts.cache_info().misses == 2
    assert _hook_polys.cache_info().misses == 2
    # zeta omitted orients every edge by index, as the identity does: the same entry
    assert first == Labeling.identity(4)
    assert _coloring_counts(CLAW, omitted) is _coloring_counts(CLAW, one)
    assert _order_counts(CLAW, omitted) is _order_counts(CLAW, one)
    assert _hook_polys(CLAW, omitted) is _hook_polys(CLAW, one)
    assert sink_profile.__wrapped__(CLAW).total == 8  # past its own cache: reads the entry for zeta omitted
    assert _coloring_counts.cache_info().misses == 2
    assert _order_counts.cache_info().misses == 2
    assert _hook_polys.cache_info().misses == 2
    assert _sink_polys.cache_info().misses == 1


T_GRADED = (
    cqf_monomial,
    cqf_fundamental_via_orientations,
    hook_coefficients_via_extensions_t,
    hook_coefficients_via_orientations_t,
    hook_coefficients_via_colorings_t,
)


def _assert_the_labeling_acts_only_through_its_orientation(g, zeta):
    # zeta(G), G with vertex v renamed zeta(v), carries by index the
    # orientation that zeta gives G; no value may see the names
    renamed = Graph(g.n, [(zeta.label(a), zeta.label(b)) for a, b in g.edges])
    below, renamed_below = reference_orientation(g, zeta), reference_orientation(renamed)
    for value in T_GRADED:
        assert value(g, below) == value(renamed, renamed_below), (g, zeta, value.__name__)


def test_a_labeling_acts_only_through_the_orientation_it_gives_the_edges():
    cases = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            for perm in permutations(range(1, n + 1)):
                _assert_the_labeling_acts_only_through_its_orientation(g, Labeling(perm))
                cases += 1
    assert cases == 1589


def test_a_labeling_acts_only_through_its_orientation_on_seeded_graphs():
    rng = Random(32)
    graphs = list(seeded_graphs(12, seed=32, sizes=(6, 7)))
    assert {g.n for g in graphs} == {6, 7}
    for g in graphs:
        _assert_the_labeling_acts_only_through_its_orientation(g, _zetas(g.n, rng)[2])


@pytest.mark.parametrize("n", range(5))
def test_dual_linear_extensions_match_the_word_oracle(n):
    # under the canonical labeling and under one that ignores the arcs
    reversed_labels = Labeling(range(n, 0, -1))
    for g in all_graphs(n):
        for o in acyclic_orientations(g):
            omega = sink_minimal_increasing_labeling(o)
            assert omega.labels == sink_minimal_labels(o)
            for labeling in (omega, reversed_labels):
                assert dual_linear_extensions(o, labeling) == tuple(sorted(extension_words(o, labeling.labels)))


def test_csf_schur_golden_values():
    assert csf_schur(CLAW) == {(3, 1): 1, (2, 2): -1, (2, 1, 1): 5, (1, 1, 1, 1): 8}
    assert csf_schur(edgeless_graph(3)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    assert csf_schur(Graph(1)) == {(1,): 1}


def test_sink_profile_examples():
    claw = sink_profile(CLAW)
    assert (claw[1], claw[2], claw[3]) == (4, 3, 1)
    assert claw.total == 8
    assert sink_profile(edgeless_graph(3)).counts == ((3, 1),)
    p3 = sink_profile(path_graph(3))
    assert (p3[1], p3[2]) == (3, 1)
    assert p3[3] == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_sink_profile_matches_orientation_objects(n):
    for g in all_graphs(n):
        histogram: dict[int, int] = {}
        for o in acyclic_orientations(g):
            histogram[o.sinks()] = histogram.get(o.sinks(), 0) + 1
        assert dict(sink_profile(g).counts) == histogram


@pytest.mark.parametrize("n", range(0, 6))
def test_sink_profile_matches_the_mask_scan_on_every_small_graph(n):
    for g in all_graphs(n):
        assert sink_profile(g).counts == sink_counts_scan(g)


def test_sink_profile_matches_the_mask_scan_on_seeded_graphs():
    for g in seeded_graphs(60, seed=12):
        assert sink_profile(g).counts == sink_counts_scan(g)


@pytest.mark.parametrize("n", range(6))
def test_sink_counts_match_the_scan_on_every_small_graph(n):
    # by (sinks, descents), under the identity and the reversed labeling
    for g in all_graphs(n):
        for zeta in _zetas(n):
            assert sink_counts(g, reference_orientation(g, zeta)) == sink_descent_counts_scan(g, zeta)


def test_sink_counts_match_the_scan_on_seeded_graphs_under_random_labelings():
    # the graphs on 8 vertices take the kernel's own memo, not the store
    rng = Random(27)
    graphs = list(seeded_graphs(24, seed=27))
    assert {g.n for g in graphs} == {6, 7, 8}
    for g in graphs:
        zeta = _zetas(g.n, rng)[2]
        assert sink_counts(g, reference_orientation(g, zeta)) == sink_descent_counts_scan(g, zeta)


@pytest.mark.parametrize("g, count", [(complete_graph(7), 5040), (path_graph(12), 2**11)])
def test_orientation_kernels_match_the_mask_scan_on_k7_and_path_12(g, count):
    scanned = acyclic_orientations_scan(g)
    assert len(scanned) == count
    assert list(acyclic_orientation_masks(g)) == scanned
    assert acyclic_orientations(g) == tuple(Orientation.from_mask(g, mask) for mask, _ in scanned)
    assert sink_profile(g).counts == sink_histogram(scanned)


def test_hook_coefficient_via_sinks_examples():
    assert hook_coefficient_via_sinks(CLAW, 2) == 5
    assert hook_coefficient_via_sinks(CLAW, 3) == 1
    assert hook_coefficient_via_sinks(edgeless_graph(3), 2) == 2
    with pytest.raises(ValueError):
        hook_coefficient_via_sinks(CLAW, 5)
    with pytest.raises(ValueError):
        hook_coefficient_via_sinks(CLAW, 0)


def test_chromatic_polynomial_values():
    p3 = path_graph(3)
    assert [chromatic_polynomial_value(p3, k) for k in range(4)] == [0, 0, 2, 12]
    assert chromatic_polynomial_value(path_graph(4), 3) == 3 * 2 * 2 * 2
    with pytest.raises(ValueError):
        chromatic_polynomial_value(p3, -1)


@pytest.mark.parametrize("n", range(1, 5))
def test_chromatic_polynomial_matches_enumeration(n):
    for g in all_graphs(n):
        for k in range(5):
            assert chromatic_polynomial_value(g, k) == count_colorings_brute(g, k)


def test_cqf_monomial_examples():
    k2, e2 = complete_graph(2), edgeless_graph(2)
    assert cqf_monomial(k2, reference_orientation(k2)).coeffs == {(1, 1): TPoly((1, 1))}
    assert cqf_monomial(e2, reference_orientation(e2)).coeffs == {
        (2,): TPoly((1,)),
        (1, 1): TPoly((2,)),
    }


def test_cqf_monomial_collapses_to_symmetric():
    for g in (CLAW, path_graph(4), complete_graph(3)):
        for zeta in (None, Labeling((2, 1) + tuple(range(3, g.n + 1)))):
            assert is_symmetric(collapse_t(cqf_monomial(g, reference_orientation(g, zeta))))


def test_sink_minimal_labeling_on_the_oriented_4_path():
    o = Orientation(path_graph(4), [(2, 1), (2, 3), (3, 4)])
    assert sink_minimal_increasing_labeling(o).labels == (1, 4, 3, 2)


def test_sink_minimal_labeling_degenerate_cases():
    (empty,) = acyclic_orientations(edgeless_graph(4))
    assert sink_minimal_increasing_labeling(empty) == Labeling.identity(4)
    k2 = complete_graph(2)
    assert sink_minimal_increasing_labeling(Orientation(k2, [(1, 2)])).labels == (2, 1)
    assert sink_minimal_increasing_labeling(Orientation(k2, [(2, 1)])).labels == (1, 2)
    cycle = Orientation(complete_graph(3), [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        sink_minimal_increasing_labeling(cycle)


@pytest.mark.parametrize("n", range(1, 5))
def test_sink_minimal_labeling_is_valid_everywhere(n):
    for g in all_graphs(n):
        for o in acyclic_orientations(g):
            omega = sink_minimal_increasing_labeling(o)
            s = o.sinks()
            out = o.out_masks()
            for v in range(1, n + 1):
                if out[v - 1] == 0:
                    assert omega.label(v) <= s
            for u, v in o.arcs:
                assert omega.label(u) > omega.label(v)


def test_dual_linear_extensions_of_the_oriented_4_path():
    o = Orientation(path_graph(4), [(2, 1), (2, 3), (3, 4)])
    omega = sink_minimal_increasing_labeling(o)
    assert dual_linear_extensions(o, omega) == (
        (4, 1, 3, 2),
        (4, 3, 1, 2),
        (4, 3, 2, 1),
    )


def test_dual_linear_extensions_degenerate_cases():
    (empty,) = acyclic_orientations(edgeless_graph(3))
    assert len(dual_linear_extensions(empty, Labeling.identity(3))) == 6
    chain = Orientation(path_graph(3), [(1, 2), (2, 3)])
    assert dual_linear_extensions(chain, Labeling.identity(3)) == ((1, 2, 3),)
    cycle = Orientation(complete_graph(3), [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        dual_linear_extensions(cycle, Labeling.identity(3))


def test_cqf_fundamental_examples():
    k2, e2 = complete_graph(2), edgeless_graph(2)
    assert cqf_fundamental_via_orientations(k2, reference_orientation(k2)).coeffs == {(1, 1): TPoly((1, 1))}
    assert cqf_fundamental_via_orientations(e2, reference_orientation(e2)).coeffs == {
        (2,): TPoly((1,)),
        (1, 1): TPoly((1,)),
    }


@pytest.mark.parametrize("n", range(1, 5))
def test_route_equivalence_all_labelings(n):
    for g in all_graphs(n):
        for perm in permutations(range(1, n + 1)):
            zeta = Labeling(perm)
            below = reference_orientation(g, zeta)
            assert qsym_M_to_F(cqf_monomial(g, below)) == cqf_fundamental_via_orientations(g, below)


def test_route_equivalence_on_5_vertices():
    import random

    rng = random.Random(5)
    labelings = list(permutations(range(1, 6)))
    for g in all_graphs(5):
        zetas = [Labeling.identity(5)] + [Labeling(rng.choice(labelings))]
        for zeta in zetas:
            below = reference_orientation(g, zeta)
            assert qsym_M_to_F(cqf_monomial(g, below)) == cqf_fundamental_via_orientations(g, below)


def test_route_equivalence_on_random_6_vertex_graphs():
    import random

    rng = random.Random(6)
    pairs = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    for _ in range(8):
        mask = rng.getrandbits(15)
        g = Graph(6, [pairs[i] for i in range(15) if mask >> i & 1])
        perm = list(range(1, 7))
        rng.shuffle(perm)
        zeta = Labeling(perm)
        below = reference_orientation(g, zeta)
        assert qsym_M_to_F(cqf_monomial(g, below)) == cqf_fundamental_via_orientations(g, below)


def _alternative_sink_labeling(o: Orientation) -> Labeling:
    """A different valid choice: ties broken by descending vertex index."""
    n = o.graph.n
    out = o.out_masks()
    labels = [0] * n
    labeled = 0
    next_label = 1
    for v in reversed(range(n)):
        if out[v] == 0:
            labels[v] = next_label
            next_label += 1
            labeled |= 1 << v
    while next_label <= n:
        for v in reversed(range(n)):
            if labeled >> v & 1 or out[v] & ~labeled:
                continue
            labels[v] = next_label
            next_label += 1
            labeled |= 1 << v
            break
    return Labeling(labels)


@pytest.mark.parametrize("n", range(1, 5))
def test_any_valid_sink_minimal_labeling_gives_the_same_expansion(n):
    for g in all_graphs(n):
        acc: dict = {}
        for o in acyclic_orientations(g):
            omega = _alternative_sink_labeling(o)
            s = o.sinks()
            for u, v in o.arcs:
                assert omega.label(u) > omega.label(v)
            out = o.out_masks()
            assert all(
                omega.label(v) <= s for v in range(1, n + 1) if out[v - 1] == 0
            )
            des = sum(1 for u, v in o.arcs if u > v)
            for word in dual_linear_extensions(o, omega):
                reflected = {n - i for i in descent_set(word)}
                alpha = composition_from_descents(reflected, n)
                arr = acc.setdefault(alpha, [0] * (g.m + 1))
                arr[des] += 1
        rebuilt = QuasisymmetricF(n, {a: TPoly(c) for a, c in acc.items()})
        assert rebuilt == cqf_fundamental_via_orientations(g, reference_orientation(g))


@pytest.mark.parametrize("n", range(1, 5))
def test_extension_descent_counts_match_binomials(n):
    for g in all_graphs(n):
        for o in acyclic_orientations(g):
            omega = sink_minimal_increasing_labeling(o)
            words = dual_linear_extensions(o, omega)
            s = o.sinks()
            for k in range(1, n + 1):
                target = tuple(range(1, n - k + 1))
                hits = sum(1 for w in words if descent_set(w) == target)
                assert hits == comb(s - 1, k - 1)


def test_hook_coefficient_via_orientations_t_examples():
    k2 = complete_graph(2)
    assert hook_coefficients_via_orientations_t(k2, reference_orientation(k2)) == (TPoly((1, 1)), TPoly())
    assert hook_coefficients_via_orientations_t(CLAW, reference_orientation(CLAW))[1].subs(1) == 5
    assert hook_coefficients_via_orientations_t(Graph(0), ()) == ()


@pytest.mark.parametrize("n", range(0, 6))
def test_hook_t_single_pass_matches_a_sum_per_arm_length(n):
    for g in all_graphs(n):
        for zeta in (None, Labeling(range(n, 0, -1))):
            labels = zeta or Labeling.identity(n)
            oriented = [(o.sinks(), descents(o, labels)) for o in acyclic_orientations(g)]
            expected = []
            for k in range(1, n + 1):
                arr = [0] * (g.m + 1)
                for sinks, des in oriented:
                    arr[des] += comb(sinks - 1, k - 1)
                expected.append(TPoly(arr))
            assert hook_coefficients_via_orientations_t(g, reference_orientation(g, zeta)) == tuple(expected)


def test_sink_profile_is_an_immutable_value():
    profile = sink_profile(path_graph(3))
    assert profile == SinkProfile(((1, 3), (2, 1)))
    assert profile.counts == ((1, 3), (2, 1))
    assert hash(profile) == hash(SinkProfile(((1, 3), (2, 1))))
    assert profile != SinkProfile(((1, 4),))
    assert profile != ((1, 3), (2, 1))
    assert repr(profile) == "SinkProfile(counts=((1, 3), (2, 1)))"
    assert (profile[1], profile[2], profile[3], profile.total) == (3, 1, 0, 4)
    for attempt in (lambda: setattr(profile, "counts", ()), lambda: delattr(profile, "counts")):
        with pytest.raises(AttributeError):
            attempt()
    with pytest.raises(AttributeError):
        profile.extra = 1


def test_route_values_are_computed_once_per_graph_and_shared():
    g = path_graph(4)
    assert csf_monomial(g) is csf_monomial(Graph(4, [(3, 4), (1, 2), (2, 3)]))
    assert sink_profile(g) is sink_profile(Graph(4, [(3, 4), (1, 2), (2, 3)]))


def test_shared_route_values_are_read_only_and_pickle():
    g = star_graph(3)
    schur = csf_schur(g)
    with pytest.raises(TypeError):
        csf_monomial(g).coeffs[(4,)] = 7
    assert csf_schur(g) == schur
    for value in (csf_monomial(g), cqf_monomial(g, reference_orientation(g, Labeling((2, 1, 4, 3))))):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy is not value
        with pytest.raises(TypeError):
            copy.coeffs[(4,)] = 7


def test_csf_schur_hands_out_one_read_only_mapping_per_graph():
    g = path_graph(4)
    first = csf_schur(g)
    expected = dict(first)
    with pytest.raises(TypeError):
        first[(9,)] = 1
    with pytest.raises(TypeError):
        del first[(1, 1, 1, 1)]
    second = csf_schur(Graph(4, [(3, 4), (1, 2), (2, 3)]))
    assert second is first and second == expected


@pytest.mark.parametrize("n", range(1, 5))
def test_hook_routes_agree_with_identity_labeling(n):
    for g in all_graphs(n):
        below = reference_orientation(g)
        direct = cqf_fundamental_via_orientations(g, below)
        polys = hook_coefficients_via_orientations_t(g, below)
        for k in range(1, n + 1):
            assert hook_coefficient_of_F(direct, k) == polys[k - 1]


@pytest.mark.parametrize("n", range(1, 5))
def test_labeling_independence_at_t_equal_1(n):
    for g in all_graphs(n):
        reference = monomial_to_quasi(csf_monomial(g))
        for perm in permutations(range(1, n + 1)):
            assert collapse_t(cqf_monomial(g, reference_orientation(g, Labeling(perm)))) == reference


def test_verify_e_sink_identity_examples():
    assert cli.CHECKS["e-sink"].rows(path_graph(3), None) == [(1, 3, 3), (2, 1, 1), (3, 0, 0)]
    rows = cli.CHECKS["e-sink"].rows(edgeless_graph(3), None)
    assert rows[2] == (3, 1, 1)
    assert all(a == b for _, a, b in rows)


@pytest.mark.parametrize("n", range(1, 5))
def test_schur_hooks_match_sink_formula_small(n):
    for g in all_graphs(n):
        schur = csf_schur(g)
        for k in range(1, n + 1):
            assert schur.get(hook_partition(n, k), 0) == hook_coefficient_via_sinks(g, k)


@pytest.mark.parametrize("n", range(1, 5))
def test_schur_hook_equals_fundamental_hook_at_t_1(n):
    # Schur coefficients via stable partitions and the Jacobi-Trudi table; the
    # fundamental coefficient via colorings and refinement inversion.
    for g in all_graphs(n):
        schur = csf_schur(g)
        f = qsym_M_to_F(cqf_monomial(g, reference_orientation(g)))
        for k in range(1, n + 1):
            assert schur.get(hook_partition(n, k), 0) == hook_coefficient_of_F(f, k).subs(1)
