import json
import subprocess
import sys

import pytest

from chromsym import cli
from chromsym.chromatic import csf_schur
from chromsym.graphs import Graph, complete_graph, edgeless_graph, is_claw_free
from chromsym.partitions import hook_partition
from chromsym.posets import (
    Poset,
    _incomparability_bits,
    _schur_hooks,
    all_posets,
    count_p_tableaux_hook,
    incomparability_graph,
    parse_poset_text,
)

from oracles import all_posets_scan, count_p_tableaux_hook_brute

CHAIN3 = Poset.from_covers(3, [[1, 2], [2, 3]])
ANTICHAIN3 = Poset(3, (0, 0, 0))
# A 3-chain plus one element incomparable to everything: its
# incomparability graph is the claw.
CHAIN_PLUS_FREE = Poset.from_covers(4, [[1, 2], [2, 3]])


def hook_proposition_rows(poset):
    return cli.CHECKS["ptableaux"].rows(poset, None)


def test_from_covers_takes_the_transitive_closure():
    assert CHAIN3.less(1, 3)
    assert not CHAIN3.less(3, 1)
    assert CHAIN3.above == (0b110, 0b100, 0)


def test_from_covers_rejects_cycles():
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_covers(3, [[1, 2], [2, 3], [3, 1]])
    with pytest.raises(ValueError):
        Poset.from_covers(2, [[1, 1]])
    with pytest.raises(ValueError):
        Poset.from_covers(2, [[1, 3]])


def test_constructor_validates_order_axioms():
    with pytest.raises(ValueError, match="itself"):
        Poset(2, (0b01, 0))
    with pytest.raises(ValueError, match="both ways"):
        Poset(2, (0b10, 0b01))
    with pytest.raises(ValueError, match="transitively"):
        Poset(3, (0b010, 0b100, 0))
    with pytest.raises(ValueError):
        Poset(3, (0b010, 0b100, 0b001))


def test_constructor_rejects_non_integers():
    for n, above, bad in ((2, (2.9, 0), "2.9"), (2, ("2", 0), "'2'"), (True, (0,), "True"), (2, (False, 0), "False")):
        with pytest.raises(ValueError, match=f"must be an integer, got {bad}"):
            Poset(n, above)


def test_from_covers_rejects_non_integers():
    for n, covers, bad in ((2, [(1.7, 2)], "1.7"), (2, [("1", 2)], "'1'"), (2.0, [], "2.0"), (2, [(1, True)], "True")):
        with pytest.raises(ValueError, match=f"must be an integer, got {bad}"):
            Poset.from_covers(n, covers)
    np = pytest.importorskip("numpy")
    assert Poset.from_covers(np.int64(2), [(np.int8(1), np.int16(2))]) == Poset(2, (0b10, 0))


@pytest.mark.parametrize(
    "cover, shown",
    [((1, 2, 3), r"\(1, 2, 3\)"), ((1,), r"\(1,\)"), (5, "5"), ("12", "'12'"), ({1, 2}, r"\{1, 2\}"), (None, "None")],
)
def test_from_covers_rejects_covers_that_are_not_pairs(cover, shown):
    with pytest.raises(ValueError, match=f"^cover must be a pair of integers, got {shown}$"):
        Poset.from_covers(3, [cover])


def test_incomparable():
    assert CHAIN_PLUS_FREE.incomparable(1, 4)
    assert not CHAIN_PLUS_FREE.incomparable(1, 3)
    assert not CHAIN_PLUS_FREE.incomparable(2, 2)


def test_incomparability_graph_examples():
    assert incomparability_graph(CHAIN3) == edgeless_graph(3)
    assert incomparability_graph(ANTICHAIN3) == complete_graph(3)
    one_below_two = Poset.from_covers(3, [[1, 2]])
    assert incomparability_graph(one_below_two) == Graph(3, [(1, 3), (2, 3)])


def test_incomparability_graph_of_chain_plus_free_element_is_a_claw():
    g = incomparability_graph(CHAIN_PLUS_FREE)
    assert g == Graph(4, [(1, 4), (2, 4), (3, 4)])
    assert not is_claw_free(g)


def test_tableau_counts_for_the_3_chain():
    assert count_p_tableaux_hook(CHAIN3, 3) == 1
    assert count_p_tableaux_hook(CHAIN3, 2) == 2
    assert count_p_tableaux_hook(CHAIN3, 1) == 1
    with pytest.raises(ValueError):
        count_p_tableaux_hook(CHAIN3, 4)


def test_tableau_counts_for_the_3_antichain():
    assert count_p_tableaux_hook(ANTICHAIN3, 1) == 6
    assert count_p_tableaux_hook(ANTICHAIN3, 2) == 0
    assert count_p_tableaux_hook(ANTICHAIN3, 3) == 0


def test_tableau_counts_for_chain_plus_free_element():
    counts = [count_p_tableaux_hook(CHAIN_PLUS_FREE, k) for k in (1, 2, 3, 4)]
    assert counts == [8, 5, 1, 0]


@pytest.mark.parametrize("n", range(1, 6))
def test_tableau_counts_match_the_permutation_oracle(n):
    for poset in all_posets(n):
        def column_ok(lower, upper):
            return not poset.less(upper, lower)

        for k in range(1, n + 1):
            assert count_p_tableaux_hook(poset, k) == count_p_tableaux_hook_brute(poset, k, column_ok)


def test_mirrored_column_rule_is_ruled_out_by_the_identity():
    # the mirrored reading undercounts shape (2,1,1) on the claw poset
    def mirrored(lower, upper):
        return not CHAIN_PLUS_FREE.less(lower, upper)

    counts = {k: count_p_tableaux_hook_brute(CHAIN_PLUS_FREE, k, mirrored) for k in range(1, 5)}
    assert counts[2] == 4
    schur = {k: coeff for k, _, coeff in hook_proposition_rows(CHAIN_PLUS_FREE)}
    assert counts != schur


def test_top_arm_counts_chains_covering_everything():
    assert count_p_tableaux_hook(CHAIN3, 3) == 1
    assert count_p_tableaux_hook(ANTICHAIN3, 3) == 0
    assert count_p_tableaux_hook(CHAIN_PLUS_FREE, 4) == 0


def test_verify_hook_proposition_examples():
    assert hook_proposition_rows(CHAIN3) == [(1, 1, 1), (2, 2, 2), (3, 1, 1)]
    rows = hook_proposition_rows(ANTICHAIN3)
    assert rows[0] == (1, 6, 6)
    assert all(a == b for _, a, b in rows)
    assert all(a == b for _, a, b in hook_proposition_rows(CHAIN_PLUS_FREE))


def test_the_transpose_is_built_once_per_poset():
    for poset in (CHAIN_PLUS_FREE, Poset(4, CHAIN_PLUS_FREE.above), Poset._trusted(4, CHAIN_PLUS_FREE.above)):
        first = poset.below_masks()
        assert first == (0, 0b0001, 0b0011, 0)
        assert poset.below_masks() is first


def test_all_posets_counts():
    assert sum(1 for _ in all_posets(1)) == 1
    assert sum(1 for _ in all_posets(2)) == 3
    assert sum(1 for _ in all_posets(3)) == 19
    assert sum(1 for _ in all_posets(4)) == 219


@pytest.mark.parametrize("n", range(1, 5))
def test_hook_proposition_holds_for_every_small_poset(n):
    for poset in all_posets(n):
        assert all(a == b for _, a, b in hook_proposition_rows(poset))


@pytest.mark.parametrize("n", range(6))
def test_built_incomparability_graphs_equal_validated_ones(n):
    # incomparability_graph skips the checks of Graph(n, edges)
    for poset in all_posets(n):
        built = incomparability_graph(poset)
        validated = Graph(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if poset.incomparable(a, b)])
        assert built == validated
        assert hash(built) == hash(validated)
        assert built.edges == validated.edges
        assert all(type(x) is int for edge in built.edges for x in edge)


@pytest.mark.parametrize("n", range(1, 6))
def test_hook_proposition_rows_match_the_schur_expansion_of_each_poset(n):
    # the Schur side comes from a memo shared by posets with one
    # incomparability graph; each poset is checked against its own expansion
    for poset in all_posets(n):
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if poset.incomparable(a, b)]
        schur = csf_schur(Graph(n, pairs))
        counts = [count_p_tableaux_hook(poset, k) for k in range(1, n + 1)]
        expected = [(k, counts[k - 1], schur.get(hook_partition(n, k), 0)) for k in range(1, n + 1)]
        assert hook_proposition_rows(poset) == expected


def test_the_schur_hook_memo_is_bounded():
    assert _schur_hooks.cache_info().maxsize >= 30164  # the distinct incomparability graphs on 6 elements
    for poset in all_posets(5):  # 1012 distinct incomparability graphs
        schur = csf_schur(Graph(5, incomparability_graph(poset).edges))
        expected = tuple(schur.get(hook_partition(5, k), 0) for k in range(1, 6))
        assert _schur_hooks(5, _incomparability_bits(poset)) == expected


def test_incomparability_bits_name_one_graph_each():
    seen, graphs = {}, set()
    for poset in (poset for n in range(6) for poset in all_posets(n)):
        graph = (poset.n, incomparability_graph(poset).edges)
        assert seen.setdefault(_incomparability_bits(poset), graph) == graph  # one graph per key
        graphs.add(graph)
    assert len(seen) == len(graphs)  # one key per graph, across the element counts too


def test_some_small_posets_have_clawed_incomparability_graphs():
    flags = [not is_claw_free(incomparability_graph(p)) for p in all_posets(4)]
    assert any(flags)


def test_parse_poset_text():
    poset = parse_poset_text(json.dumps({"n": 3, "covers": [[1, 2], [2, 3]]}))
    assert poset == CHAIN3
    assert parse_poset_text('{"n": 2}') == Poset(2, (0, 0))
    with pytest.raises(ValueError, match="invalid JSON"):
        parse_poset_text("[", source="p.json")
    with pytest.raises(ValueError, match="p.json.*cycle"):
        parse_poset_text('{"n": 2, "covers": [[1, 2], [2, 1]]}', source="p.json")
    with pytest.raises(ValueError, match="'n'"):
        parse_poset_text('{"covers": []}')


def test_parse_poset_text_rejects_a_graph_file():
    # A graph file has no covers; read as a poset it was an antichain.
    with pytest.raises(ValueError, match=r'g.json: unknown field "edges"'):
        parse_poset_text('{"n": 3, "edges": [[1, 2]]}', source="g.json")
    with pytest.raises(ValueError, match='unknown field "labels"'):
        parse_poset_text('{"n": 2, "covers": [], "labels": [1, 2]}')


def test_parse_poset_text_rejects_deep_nesting():
    # json.loads raises RecursionError on this.
    with pytest.raises(ValueError, match="p.json: invalid JSON: nested too deeply"):
        parse_poset_text("[" * 100_000 + "]" * 100_000, source="p.json")


@pytest.mark.parametrize("n", range(6))
def test_all_posets_matches_the_direction_scan(n):
    posets = list(all_posets(n))
    assert len(posets) == len(set(posets))
    assert set(posets) == set(all_posets_scan(n))
    assert posets[0] == Poset(n, (0,) * n)  # the antichain comes first


@pytest.mark.parametrize("n", range(5))
def test_built_posets_equal_validated_ones(n):
    # all_posets and from_covers skip the checks of Poset(n, above)
    for poset in all_posets(n):
        assert poset == Poset(n, poset.above)
        above = poset.above
        relations = [(a, b) for a in range(n) for b in range(n) if above[a] >> b & 1]
        covers = [
            (a, b) for a, b in relations if not any(above[a] >> c & 1 and above[c] >> b & 1 for c in range(n))
        ]
        for pairs in (relations, covers):
            built = Poset.from_covers(n, [[a + 1, b + 1] for a, b in pairs])
            assert built == Poset(n, above)
            assert hash(built) == hash(Poset(n, above))


def test_all_posets_on_six_elements():
    assert sum(1 for _ in all_posets(6)) == 130_023


@pytest.mark.parametrize("above", [[4, 0], [-1], [0, 1 << 5]])
def test_out_of_range_masks_are_rejected(above):
    with pytest.raises(ValueError, match="out of range"):
        Poset(len(above), above)


def test_a_large_antichain_parses_in_linear_time():
    # The range check of a mask must not build an n-bit integer per element.
    code = 'from chromsym.posets import parse_poset_text; assert parse_poset_text(\'{"n": 1000000}\').n == 1000000'
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=30)
    assert run.returncode == 0, run.stderr.decode()
