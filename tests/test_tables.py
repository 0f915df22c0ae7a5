"""The graph checks read their arithmetic from tables built once per
vertex count: Kostka numbers at the hooks, binomials, m_lam(1^k), the
Jacobi-Trudi rows at conjugate shapes, the partitions by type code, the
orders of equal parts, and alpha_1 with the parity of len(alpha) by
partial sums.  Their rows must be the rows that the definitions one k, one
partition or one composition at a time give, in ``oracles``."""

from itertools import chain
from math import comb
from random import Random

import pytest

from chromsym import cli
from chromsym.graphs import Labeling, complete_graph
from chromsym.chromatic import _hook_slots
from chromsym.partitions import (
    _binomials,
    _hooks,
    _multiplicity_factorials,
    _partitions_by_code,
    hook_partition,
    partitions_of,
)
from chromsym.symfunc import SymmetricFunctionM, _monomials_at_ones
from oracles import (
    all_graphs,
    chrompoly_rows,
    decode_type,
    e_sink_rows,
    hook_1_rows,
    hook_slot,
    hook_t_rows,
    multiplicity_factorial_product,
    seeded_graphs,
    specialize_w_k,
)

GRAPHS = [
    *chain.from_iterable(all_graphs(n) for n in range(6)),
    *seeded_graphs(12, seed=24, max_edges=15, sizes=(6, 7)),
    complete_graph(7),
]

ROWS = {
    "hook-1": lambda g, zeta: hook_1_rows(g),
    "hook-t": hook_t_rows,
    "e-sink": lambda g, zeta: e_sink_rows(g),
    "chrompoly": lambda g, zeta: chrompoly_rows(g),
}


@pytest.mark.parametrize("check", sorted(ROWS))
def test_tabled_rows_match_the_rows_one_k_at_a_time(check):
    assert [sum(g.n == n for g in GRAPHS) for n in range(8)] == [1, 1, 2, 8, 64, 1024, 6, 7]
    for g in GRAPHS:
        assert cli.CHECKS[check].rows(g, None) == ROWS[check](g, None), g


def test_tabled_hook_t_rows_match_under_a_labeling():
    rng = Random(24)
    for g in (g for g in GRAPHS if g.n >= 6):
        labels = list(range(1, g.n + 1))
        rng.shuffle(labels)
        assert cli.CHECKS["hook-t"].rows(g, Labeling(labels)) == hook_t_rows(g, Labeling(labels)), g


@pytest.mark.parametrize("n", range(9))
def test_the_tables_hold_their_definitions(n):
    assert _hooks(n) == tuple(hook_partition(n, k) for k in range(1, n + 1))
    assert _binomials(n) == tuple(tuple(comb(a, b) for b in range(n + 1)) for a in range(n + 1))
    for lam in partitions_of(n):
        ones = tuple(specialize_w_k(SymmetricFunctionM(n, {lam: 1}), k) for k in range(n + 1))
        assert _monomials_at_ones(n)[lam] == ones
    assert cli._vertex_pairs(n) == tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


@pytest.mark.parametrize("n", range(9))
def test_the_partition_and_composition_tables_hold_their_definitions(n):
    by_code = _partitions_by_code(n)
    assert tuple(by_code.values()) == partitions_of(n)  # in canonical order
    assert all(decode_type(code, n) == lam for code, lam in by_code.items())
    assert _multiplicity_factorials(n) == {lam: multiplicity_factorial_product(lam) for lam in partitions_of(n)}
    assert _hook_slots(n) == tuple(hook_slot(sums) for sums in range(1 << n))
