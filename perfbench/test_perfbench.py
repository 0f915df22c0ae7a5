"""Tests of the benchmark's own arithmetic, inputs, checks and tracing.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# self-time arithmetic on synthetic spans


def test_self_time_subtracts_children_and_leaf_time():
    synthetic = [
        ("root", 0.0, 10.0, -1, 0.5),
        ("a", 1.0, 3.0, 0, 0.0),
        ("b", 4.0, 8.0, 0, 1.0),
        ("c", 5.0, 6.0, 2, 0.0),
    ]
    assert spans.self_times(synthetic) == pytest.approx([10 - 2 - 4 - 0.5, 2.0, 4 - 1 - 1.0, 1.0])


def test_overlapping_children_are_counted_once():
    synthetic = [("p", 0.0, 10.0, -1, 0.0), ("x", 1.0, 5.0, 0, 0.0), ("y", 3.0, 7.0, 0, 0.0)]
    assert spans.self_times(synthetic)[0] == pytest.approx(4.0)


def test_children_are_clipped_to_their_parent():
    synthetic = [("p", 2.0, 6.0, -1, 0.0), ("x", 0.0, 3.0, 0, 0.0), ("y", 5.0, 9.0, 0, 0.0)]
    assert spans.self_times(synthetic)[0] == pytest.approx(2.0)


def test_self_times_of_a_tree_sum_to_the_root():
    synthetic = [
        ("root", 0.0, 9.0, -1, 0.25),
        ("f", 1.0, 4.0, 0, 0.5),
        ("g", 1.5, 2.0, 1, 0.0),
        ("f", 5.0, 8.0, 0, 0.0),
    ]
    leaf_total = sum(s[4] for s in synthetic)
    assert sum(spans.self_times(synthetic)) + leaf_total == pytest.approx(9.0)
    assert spans.aggregate(synthetic)["f"] == [2, pytest.approx(2.5 - 0.5 + 3.0)]


def test_layers_of_a_synthetic_traced_call():
    import run

    data = {
        "names": ["call", "cli.import", "cli.main", "graphs.f", "chromatic.g"],
        "spans": [
            [0, 0.0, 10.0, -1, 0.0],
            [1, 0.5, 2.0, 0, 0.0],
            [2, 2.0, 9.5, 0, 0.0],
            [3, 3.0, 6.0, 2, 1.0],
            [4, 6.5, 8.0, 2, 0.0],
        ],
        "leaves": {"tableaux.kostka": [5, 1.0, 0]},
        "items": {},
        "sink_orientations": 0,
    }
    call = workloads.Call("c", ["expand", "g.txt"])
    ex = run.Execution(call, True, 12.0, 12.0, 0, 0, b"", b"", spans=data)
    layers = run.pass_layers([ex])
    assert layers["graphs.self_s"] == pytest.approx(2.0)
    assert layers["chromatic.self_s"] == pytest.approx(1.5)
    assert layers["tableaux.self_s"] == pytest.approx(1.0)
    assert layers["tableaux.kostka.calls"] == 5
    assert layers["cli.self_s"] == pytest.approx(7.5 - 3.0 - 1.5)
    # Library self times plus cli.self_s fill main(), 7.5 of the 12 s the
    # client saw; the root span covers 10 s, 1 s of it the shim's own.
    assert layers["trace.accounted_frac"] == pytest.approx(7.5 / 12)
    assert layers["trace.spanned_frac"] == pytest.approx(10 / 12)
    assert layers["trace.install_frac"] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    first, second = workloads.build(name, 7), workloads.build(name, 7)
    assert first.files == second.files
    assert [c.argv for c in first.calls] == [c.argv for c in second.calls]


def test_seeds_change_the_inputs():
    assert workloads.build("qsym-dense", 1).files != workloads.build("qsym-dense", 2).files


def test_prufer_trees_are_trees():
    import random

    rng = random.Random(3)
    for n in range(3, 13):
        edges = workloads.prufer_tree(rng, n)
        parent = list(range(n + 1))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for u, v in edges:
            assert find(u) != find(v)
            parent[find(u)] = find(v)
        assert len(edges) == n - 1


# ---------------------------------------------------------------------------
# independent checks


def test_closed_forms_agree_with_stable_partitions():
    for family, edges in (("tree", workloads.path_edges(6)), ("cycle", workloads.cycle_edges(6))):
        spec = workloads.GraphSpec(6, workloads.canonical(edges), family)
        dense = workloads.GraphSpec(6, spec.edges, "dense")
        for k in range(-1, 8):
            assert checks.chromatic_polynomial(spec, k) == checks.chromatic_polynomial(dense, k)
    tree = workloads.GraphSpec(6, workloads.canonical(workloads.path_edges(6)), "tree")
    cycle = workloads.GraphSpec(6, workloads.canonical(workloads.cycle_edges(6)), "cycle")
    assert checks.acyclic_orientation_count(tree) == 2**5
    assert checks.acyclic_orientation_count(cycle) == 2**6 - 2


def test_order_descent_poly_counts_every_order():
    spec = workloads.GraphSpec(4, ((1, 2), (2, 3), (3, 4), (1, 4)), "dense")
    poly = checks.order_descent_poly(spec, (2, 1, 4, 3))
    assert sum(poly) == 24
    # Reversing an order swaps descents and ascents along every edge.
    assert poly == poly[::-1]


def test_parse_poly():
    assert checks.parse_poly("3+2t-t^2") == [3, 2, -1]
    assert checks.parse_poly("t^3") == [0, 0, 0, 1]
    assert checks.parse_poly("0") == [0]


def test_schur_at_ones_matches_small_cases():
    # s_(2,1)(1^k) = k(k-1)(k+1)/3; s_(1,1,1)(1^k) = C(k, 3).
    for k in range(6):
        assert checks.s_at_ones((2, 1), k) == k * (k - 1) * (k + 1) // 3
        assert checks.s_at_ones((1, 1, 1), k) == checks.e_at_ones((3,), k)


def test_check_output_flags_a_wrong_expansion():
    spec = workloads.GraphSpec(3, ((1, 2), (2, 3)), "tree")
    call = workloads.Call("p3", ["expand", "p3.txt", "--basis", "m", "--max-n", "3"], spec)
    good = "# expand  basis=m  n=3  edges=2\n  (2,1)  1\n  (1,1,1)  6\n"
    assert checks.check_output(call, good) == []
    assert checks.check_output(call, good.replace("  6", "  5"))


# ---------------------------------------------------------------------------
# tracing


def _run_shim(tmp_path, prelude, *argv):
    """Run the shim in a fresh interpreter, after ``prelude`` has run there."""
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "chromsym").is_dir():
        pytest.skip("chromsym sources not found")
    script = (
        f"import sys; sys.path[:0] = [{str(Path(__file__).resolve().parent)!r}, {str(src)!r}]\n"
        f"{prelude}\n"
        "import shim; sys.argv = ['shim.py', 'spans.json', '--', *sys.argv[1:]]; sys.exit(shim.main())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )


def test_traced_call_wraps_every_binding(tmp_path):
    (tmp_path / "p4.txt").write_text("1 2\n2 3\n3 4\n")
    proc = _run_shim(tmp_path, "", "verify", "p4.txt", "hook-1")
    assert proc.returncode == 0, proc.stderr
    data = json.loads((tmp_path / "spans.json").read_text())
    named = [(data["names"][s[0]], *s[1:]) for s in data["spans"]]
    names = {s[0] for s in named}
    assert {"call", "cli.import", "cli.main", "chromatic.csf_schur", "symfunc.m_to_s"} <= names
    assert data["leaves"]["tableaux.kostka"][0] > 0
    # Self times and leaf times together cover the root span exactly.
    root = named[0][2] - named[0][1]
    leaf_total = sum(entry[1] for entry in data["leaves"].values())
    assert sum(spans.self_times(named)) + leaf_total == pytest.approx(root)


def test_a_missed_binding_fails_loudly(tmp_path):
    (tmp_path / "p4.txt").write_text("1 2\n2 3\n")
    prelude = "import chromsym.cli as c, chromsym.tableaux as t; c._hidden = {'kostka': t.kostka}"
    proc = _run_shim(tmp_path, prelude, "expand", "p4.txt")
    assert proc.returncode != 0
    assert "chromsym.cli._hidden['kostka'] (tableaux.kostka)" in proc.stderr
