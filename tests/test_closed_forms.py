"""Closed forms for paths, complete graphs and edgeless graphs against the CLI
and the three hook readers.

Under the natural labeling X_{P_n}(x,t), X_{K_n}(x,t) and X of the edgeless
graph have closed e-expansions (``tests/oracles.py``), computed with no
chromsym kernel; each is symmetric, so its F-hook coefficients are its
s-hook coefficients, read off the e-expansion.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from chromsym.chromatic import (
    hook_coefficients_via_colorings_t,
    hook_coefficients_via_extensions_t,
    hook_coefficients_via_orientations_t,
)
from chromsym.cli import main
from chromsym.graphs import complete_graph, edgeless_graph, path_graph
from oracles import complete_e_expansion, edgeless_e_expansion, hooks_of_e_expansion, path_e_expansion


def test_the_closed_forms_of_three_vertices():
    assert path_e_expansion(3) == {(3,): (1, 1, 1), (2, 1): (0, 1)}  # (1 + t + t²) e_3 + t e_21
    assert complete_e_expansion(3) == {(3,): (1, 2, 2, 1)}  # [3]_t! e_3
    assert edgeless_e_expansion(3) == {(1, 1, 1): (1,)}
    assert hooks_of_e_expansion(path_e_expansion(3), 3) == [(1, 2, 1), (0, 1), ()]


@pytest.mark.parametrize("n", range(1, 13))
def test_expand_in_the_e_basis_matches_the_path_formula_at_t_1(tmp_path, n):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": n, "edges": [[i, i + 1] for i in range(1, n)]}))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["expand", str(path), "--basis", "e", "--max-n", "12", "--json"]) == 0
    terms = {tuple(lam): c for lam, c in json.loads(out.getvalue())["outputs"]["terms"]}
    assert terms == {lam: [sum(c)] for lam, c in path_e_expansion(n).items()}  # a coefficient is a list


CASES = (
    [(path_graph(n), path_e_expansion(n)) for n in range(1, 11)]
    + [(complete_graph(n), complete_e_expansion(n)) for n in range(1, 9)]
    + [(edgeless_graph(n), edgeless_e_expansion(n)) for n in range(1, 9)]
)


@pytest.mark.parametrize("graph, expansion", CASES, ids=[repr(g) for g, _ in CASES])
def test_all_three_hook_t_values_match_the_closed_form(graph, expansion):
    expected = hooks_of_e_expansion(expansion, graph.n)
    for reader in (
        hook_coefficients_via_extensions_t,
        hook_coefficients_via_orientations_t,
        hook_coefficients_via_colorings_t,
    ):
        assert [h.coeffs for h in reader(graph, None)] == expected, reader.__name__


# Past the walk's reach (it took 0.7 to 9 s on path_12 to path_14), the sink
# kernel alone: the orientation sum against the closed form.
LARGE_CASES = {
    **{f"path_{n}": (path_graph(n), path_e_expansion(n)) for n in range(11, 15)},
    **{f"K_{n}": (complete_graph(n), complete_e_expansion(n)) for n in (9, 10)},
}


@pytest.mark.parametrize("name", LARGE_CASES)
def test_the_orientation_sum_matches_the_closed_form_past_the_walk(name):
    graph, expansion = LARGE_CASES[name]
    expected = hooks_of_e_expansion(expansion, graph.n)
    assert [h.coeffs for h in hook_coefficients_via_orientations_t(graph, None)] == expected
