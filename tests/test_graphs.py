import json
from itertools import combinations

import pytest

from chromsym.graphs import (
    Graph,
    Labeling,
    Orientation,
    _closure,
    _transpose,
    acyclic_orientation_masks,
    acyclic_orientations,
    complete_graph,
    edgeless_graph,
    is_claw_free,
    parse_graph_text,
    path_graph,
    reference_orientation,
    stable_partitions_by_type,
    star_graph,
)
from oracles import (
    acyclic_orientations_scan,
    all_graphs,
    ascents,
    closure_warshall,
    count_colorings_brute,
    descents,
    interpolate_at,
    is_proper_coloring,
    proper_colorings_bounded,
    reverse,
    seeded_graphs,
    seeded_relations,
    stable_partitions_recursive,
)


def all_relations(n: int):
    """Every relation on n elements, self-relations included, as masks."""
    for code in range(1 << n * n):
        yield [code >> (n * i) & (1 << n) - 1 for i in range(n)]


def test_graph_normalisation_and_validation():
    g = Graph(3, [(2, 1), (3, 2)])
    assert g.edges == ((1, 2), (2, 3))
    assert g.neighbors(2) == (1, 3)
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])


@pytest.mark.parametrize(
    "n, edges, bad",
    [(3, [(1.9, 2.2)], "1.9"), (3, [("1", "3")], "'1'"), (3, [(1, True)], "True"), (True, [], "True"), (2.0, [], "2.0")],
)
def test_graph_rejects_non_integers(n, edges, bad):
    with pytest.raises(ValueError, match=f"must be an integer, got {bad}"):
        Graph(n, edges)


@pytest.mark.parametrize(
    "edge, shown",
    [((1, 2, 3), r"\(1, 2, 3\)"), ((1,), r"\(1,\)"), (5, "5"), ("12", "'12'"), ({1, 2}, r"\{1, 2\}"), (None, "None")],
)
def test_graph_rejects_edges_that_are_not_pairs(edge, shown):
    with pytest.raises(ValueError, match=f"^edge must be a pair of integers, got {shown}$"):
        Graph(3, [edge])


def test_graph_accepts_numpy_integers():
    np = pytest.importorskip("numpy")
    g = Graph(np.int64(3), [(np.int32(2), np.uint8(1))])
    assert g == Graph(3, [(1, 2)]) and hash(g) == hash(Graph(3, [(1, 2)]))
    assert type(g.n) is int and all(type(x) is int for edge in g.edges for x in edge)
    with pytest.raises(ValueError, match="must be an integer"):
        Graph(3, [(np.bool_(True), 2)])


def test_the_adjacency_tuple_is_built_once_per_graph():
    for g in (Graph(4, [(1, 2), (1, 3), (1, 4)]), Graph._trusted(4, ((1, 2), (1, 3), (1, 4)))):
        first = g.adjacency_masks()
        assert first == (0b1110, 0b0001, 0b0001, 0b0001)
        assert g.adjacency_masks() is first


def test_labeling_rejects_non_integers():
    for labels, bad in (([1.0, 2.0], "1.0"), (["2", "1"], "'2'"), ([True, 2], "True")):
        with pytest.raises(ValueError, match=f"label must be an integer, got {bad}"):
            Labeling(labels)
    np = pytest.importorskip("numpy")
    assert Labeling(np.array([2, 1])).labels == (2, 1)


def test_labeling_validation():
    z = Labeling((2, 1, 3))
    assert z.label(1) == 2
    assert Labeling.identity(3).labels == (1, 2, 3)
    with pytest.raises(ValueError):
        Labeling((1, 1, 2))


def test_orientation_construction():
    g = path_graph(3)
    o = Orientation(g, [(2, 1), (2, 3)])
    assert o.is_acyclic()
    assert o.sinks() == 2
    assert reverse(o).arcs == ((1, 2), (3, 2))
    with pytest.raises(ValueError):
        Orientation(g, [(1, 2)])
    with pytest.raises(ValueError):
        Orientation(g, [(1, 3), (2, 3)])


def test_triangle_cycle_is_detected():
    g = complete_graph(3)
    cycle = Orientation(g, [(1, 2), (2, 3), (3, 1)])
    assert not cycle.is_acyclic()
    assert Orientation(g, [(1, 2), (2, 3), (1, 3)]).is_acyclic()


def test_transpose_reverses_every_pair_and_is_an_involution():
    relations = [m for n in range(4) for m in all_relations(n)] + list(seeded_relations(40, seed=5))
    for masks in relations:
        n = len(masks)
        flipped = _transpose(masks)
        assert [[flipped[j] >> i & 1 for j in range(n)] for i in range(n)] == [
            [masks[i] >> j & 1 for j in range(n)] for i in range(n)
        ]
        assert _transpose(flipped) == masks


@pytest.mark.parametrize("n", range(5))
def test_closure_matches_warshall_on_every_small_relation(n):
    for masks in all_relations(n):
        assert _closure(masks) == closure_warshall(masks)


def test_closure_matches_warshall_on_seeded_relations():
    relations = list(seeded_relations(200, seed=11))
    results = [_closure(masks) for masks in relations]
    assert results == [closure_warshall(masks) for masks in relations]
    assert None in results and any(r is not None and r != m for r, m in zip(results, relations))


def test_proper_colorings_of_the_3_path():
    p3 = path_graph(3)
    assert set(proper_colorings_bounded(p3, 2)) == {(1, 2, 1), (2, 1, 2)}
    assert sum(1 for _ in proper_colorings_bounded(p3, 3)) == 12
    assert list(proper_colorings_bounded(complete_graph(2), 1)) == []
    with pytest.raises(ValueError):
        next(proper_colorings_bounded(p3, 0))


@pytest.mark.parametrize("n", range(1, 5))
def test_coloring_counts_match_brute_force(n):
    for g in all_graphs(n):
        for k in range(1, 5):
            assert sum(1 for _ in proper_colorings_bounded(g, k)) == count_colorings_brute(g, k)


def test_colorings_are_proper():
    for g in all_graphs(3):
        for kappa in proper_colorings_bounded(g, 3):
            assert is_proper_coloring(g, kappa)


def test_stable_partitions_examples():
    assert stable_partitions_by_type(edgeless_graph(3)) == {
        (3,): 1,
        (2, 1): 3,
        (1, 1, 1): 1,
    }
    assert stable_partitions_by_type(complete_graph(3)) == {(1, 1, 1): 1}
    assert stable_partitions_by_type(path_graph(3)) == {(2, 1): 1, (1, 1, 1): 1}


@pytest.mark.parametrize("n", range(1, 6))
def test_stable_partitions_count_surjective_colorings(n):
    # partitions into j stable blocks = surjective proper colorings onto
    # j colors divided by j!
    from math import comb, factorial

    for g in all_graphs(n):
        by_type = stable_partitions_by_type(g)
        chrom = [count_colorings_brute(g, k) for k in range(n + 1)]
        for j in range(1, n + 1):
            surjective = sum((-1) ** (j - i) * comb(j, i) * chrom[i] for i in range(j + 1))
            stable_j = sum(c for lam, c in by_type.items() if len(lam) == j)
            assert stable_j * factorial(j) == surjective


@pytest.mark.parametrize("n", range(0, 6))
def test_stable_partition_dp_matches_the_recursion_on_every_small_graph(n):
    for g in all_graphs(n):
        assert stable_partitions_by_type(g) == stable_partitions_recursive(g)


def test_stable_partition_dp_matches_the_recursion_on_larger_graphs():
    graphs = list(seeded_graphs(15, seed=13, sizes=(6, 7, 8, 9, 10)))
    graphs += [edgeless_graph(9), path_graph(12)]
    for g in graphs:
        assert stable_partitions_by_type(g) == stable_partitions_recursive(g)


def test_stable_partitions_are_a_fresh_dict_per_call():
    g = path_graph(5)
    first = stable_partitions_by_type(g)
    expected = dict(first)
    first[(5,)] = 7
    first.pop((1, 1, 1, 1, 1))
    assert stable_partitions_by_type(g) == expected


def test_acyclic_orientation_counts():
    assert len(acyclic_orientations(complete_graph(2))) == 2
    assert len(acyclic_orientations(star_graph(3))) == 8
    assert len(acyclic_orientations(complete_graph(3))) == 6
    (empty,) = acyclic_orientations(edgeless_graph(3))
    assert empty.arcs == ()


@pytest.mark.parametrize("n", range(1, 6))
def test_acyclic_orientation_count_matches_chromatic_polynomial_at_minus_one(n):
    for g in all_graphs(n):
        points = [(k, count_colorings_brute(g, k)) for k in range(n + 1)]
        expected = interpolate_at(points, -1) * (-1) ** n
        assert expected == len(acyclic_orientations(g))


def _assert_kernel_matches_scan(g):
    scanned = acyclic_orientations_scan(g)
    assert list(acyclic_orientation_masks(g)) == scanned
    oriented = acyclic_orientations(g)
    assert oriented == tuple(Orientation.from_mask(g, mask) for mask, _ in scanned)
    for o, (mask, _) in zip(oriented, scanned):
        # Built without validation, yet what the validating constructor builds.
        checked = Orientation(g, o.arcs)
        assert (o.arcs, o.mask) == (checked.arcs, checked.mask) == (checked.arcs, mask)


@pytest.mark.parametrize("n", range(0, 6))
def test_orientation_kernel_matches_the_mask_scan_on_every_small_graph(n):
    for g in all_graphs(n):
        _assert_kernel_matches_scan(g)


def test_orientation_kernel_matches_the_mask_scan_on_seeded_graphs():
    for g in seeded_graphs(60, seed=11):
        _assert_kernel_matches_scan(g)


def test_sinks_counting():
    (empty,) = acyclic_orientations(edgeless_graph(3))
    assert empty.sinks() == 3  # isolated vertices are sinks
    p3 = path_graph(3)
    assert Orientation(p3, [(1, 2), (2, 3)]).sinks() == 1
    claw = star_graph(3)
    assert Orientation(claw, [(1, 2), (1, 3), (1, 4)]).sinks() == 3


def test_every_acyclic_orientation_has_a_sink():
    for n in range(1, 5):
        for g in all_graphs(n):
            for o in acyclic_orientations(g):
                assert o.sinks() >= 1


def test_descents_examples():
    k2 = complete_graph(2)
    ident = Labeling.identity(2)
    assert descents(Orientation(k2, [(1, 2)]), ident) == 0
    assert descents(Orientation(k2, [(2, 1)]), ident) == 1


def test_descents_of_reverse_complement():
    for g in all_graphs(4):
        ident = Labeling.identity(4)
        for o in acyclic_orientations(g):
            assert descents(o, ident) + descents(reverse(o), ident) == g.m


def test_reference_orientation_points_each_edge_to_its_smaller_label():
    p3 = path_graph(3)
    assert reference_orientation(p3) == (0, 0b001, 0b010)  # 2 -> 1, 3 -> 2
    assert reference_orientation(p3, Labeling.identity(3)) == reference_orientation(p3)
    assert reference_orientation(p3, Labeling((2, 3, 1))) == (0, 0b101, 0)  # 2 -> 1, 2 -> 3
    assert reference_orientation(Graph(0)) == ()
    with pytest.raises(ValueError, match="labeling does not match"):
        reference_orientation(p3, Labeling.identity(4))


def test_descents_count_the_arcs_an_orientation_shares_with_the_reference_one():
    for g in all_graphs(4):
        for zeta in (Labeling.identity(4), Labeling((3, 1, 4, 2))):
            below = reference_orientation(g, zeta)
            for o in acyclic_orientations(g):
                shared = sum((heads & down).bit_count() for heads, down in zip(o.out_masks(), below))
                assert shared == descents(o, zeta)


def test_ascents():
    ident = Labeling.identity(3)
    assert ascents(edgeless_graph(3), (5, 5, 5), ident) == 0
    p3 = path_graph(3)
    assert ascents(p3, (1, 2, 1), ident) == 1
    assert ascents(p3, (2, 1, 2), ident) == 1
    with pytest.raises(ValueError):
        ascents(p3, (1, 1, 2), ident)


def test_is_claw_free_examples():
    assert not is_claw_free(star_graph(3))
    assert is_claw_free(complete_graph(4))
    for n in range(1, 7):
        assert is_claw_free(path_graph(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_is_claw_free_matches_induced_subgraph_search(n):
    for g in all_graphs(n):
        adj = g.adjacency_masks()
        found = False
        for quad in combinations(range(1, n + 1), 4):
            for centre in quad:
                leaves = [v for v in quad if v != centre]
                if all(adj[centre - 1] >> (v - 1) & 1 for v in leaves) and all(
                    not adj[a - 1] >> (b - 1) & 1 for a, b in combinations(leaves, 2)
                ):
                    found = True
        assert is_claw_free(g) == (not found)


# ---------------------------------------------------------------------------
# parsing


def test_parse_json_graph():
    loaded = parse_graph_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
    assert loaded.graph == path_graph(3)
    assert loaded.labeling is None
    loaded = parse_graph_text(json.dumps({"n": 2, "edges": [[1, 2]], "labels": [2, 1]}))
    assert loaded.labeling == Labeling((2, 1))


def test_parse_json_graph_errors():
    with pytest.raises(ValueError, match="invalid JSON"):
        parse_graph_text("{not json", source="bad.json")
    with pytest.raises(ValueError, match="bad.json"):
        parse_graph_text('{"edges": []}', source="bad.json")
    with pytest.raises(ValueError, match="loop"):
        parse_graph_text('{"n": 2, "edges": [[1, 1]]}')
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph_text('{"n": 2, "edges": [[1, 2], [2, 1]]}')
    with pytest.raises(ValueError, match="permutation"):
        parse_graph_text('{"n": 2, "edges": [[1, 2]], "labels": [1, 1]}')
    with pytest.raises(ValueError, match=r"'edges'\[1\]"):
        parse_graph_text('{"n": 2, "edges": [[1, 2], [1]]}')
    with pytest.raises(ValueError, match="'edges' must be a list"):
        parse_graph_text('{"n": 2, "edges": {"1": 2}}')
    with pytest.raises(ValueError, match="'labels'"):
        parse_graph_text('{"n": 2, "edges": [[1, 2]], "labels": [2.0, 1]}')
    with pytest.raises(ValueError, match="'labels'"):
        parse_graph_text('{"n": 2, "edges": [[1, 2]], "labels": 5}')


def test_parse_json_graph_rejects_unknown_fields():
    # A poset file read as a graph was an edgeless graph.
    with pytest.raises(ValueError, match=r'p.json: unknown field "covers"'):
        parse_graph_text('{"n": 3, "covers": [[1, 2], [2, 1]]}', source="p.json")
    with pytest.raises(ValueError, match='unknown field "edge"'):
        parse_graph_text('{"n": 2, "edge": [[1, 2]]}')
    assert parse_graph_text('{"n": 2}').graph == Graph(2)
    assert parse_graph_text('{"n": 2, "edges": [[1, 2]], "labels": null}').labeling is None


def test_parse_json_graph_rejects_deep_nesting():
    # json.loads raises RecursionError on this.
    text = '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ValueError, match="g.json: invalid JSON: nested too deeply"):
        parse_graph_text(text, source="g.json")


def test_edge_list_names_that_int_cannot_read_sort_as_text():
    # Superscript two passes str.isdigit but not int(); --5 strips to 5.
    loaded = parse_graph_text("\u00b2 1\n--5 1\n")
    assert loaded.names == ("--5", "1", "\u00b2")
    assert parse_graph_text("-3 007\n7 -3\n").names == ("-3", "007", "7")


def test_parse_edge_list_with_arbitrary_names():
    loaded = parse_graph_text("a c\nb c\n", source="g.txt")
    assert loaded.graph == Graph(3, [(1, 3), (2, 3)])
    assert loaded.names == ("a", "b", "c")
    numeric = parse_graph_text("1 5\n5 3\n")
    assert numeric.names == ("1", "3", "5")
    assert numeric.graph == Graph(3, [(1, 3), (2, 3)])


def test_parse_edge_list_diagnostics_carry_line_numbers():
    with pytest.raises(ValueError, match="g.txt:2"):
        parse_graph_text("1 2\n2 2\n", source="g.txt")
    with pytest.raises(ValueError, match="g.txt:3"):
        parse_graph_text("1 2\n2 3\n2 1\n", source="g.txt")
    with pytest.raises(ValueError, match="g.txt:1"):
        parse_graph_text("1 2 3\n", source="g.txt")


def test_parse_edge_list_ignores_comments_and_blanks():
    loaded = parse_graph_text("# a path\n1 2\n\n2 3  # tail\n")
    assert loaded.graph == path_graph(3)


def test_every_cache_in_the_library_is_bounded():
    import importlib
    import pkgutil

    import chromsym

    caches = []
    for info in pkgutil.iter_modules(chromsym.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"chromsym.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches.append((f"{info.name}.{name}", value.cache_parameters()["maxsize"]))
    assert len(caches) >= 8
    assert [name for name, maxsize in caches if maxsize is None] == []
