import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from chromsym import chromatic, cli, posets
from chromsym.cli import main
from chromsym.posets import Poset

CLAW_JSON = '{"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]}'
P3_EDGES = "1 2\n2 3\n"
P4_JSON = '{"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}'
CHAIN3_POSET = '{"n": 3, "covers": [[1, 2], [2, 3]]}'


@pytest.fixture
def claw_file(tmp_path):
    path = tmp_path / "claw.json"
    path.write_text(CLAW_JSON)
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_EDGES)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_schur_basis(capsys, claw_file):
    code, out, _ = run_cli(capsys, "expand", claw_file, "--basis", "s")
    assert code == 0
    lines = [line.split() for line in out.splitlines()[1:]]
    assert lines == [
        ["(3,1)", "1"],
        ["(2,2)", "-1"],
        ["(2,1,1)", "5"],
        ["(1,1,1,1)", "8"],
    ]


def test_expand_monomial_single_vertex(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"n": 1, "edges": []}')
    code, out, _ = run_cli(capsys, "expand", str(path), "--basis", "m")
    assert code == 0
    assert "(1)  1" in out


def test_expand_json_output(capsys, claw_file):
    code, out, _ = run_cli(capsys, "expand", claw_file, "--basis", "s", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["outputs"]["terms"] == [
        [[3, 1], [1]],
        [[2, 2], [-1]],
        [[2, 1, 1], [5]],
        [[1, 1, 1, 1], [8]],
    ]
    assert "timing" not in payload


def test_expand_edgeless_graph_elementary(capsys, tmp_path):
    path = tmp_path / "e3.json"
    path.write_text('{"n": 3, "edges": []}')
    code, out, _ = run_cli(capsys, "expand", str(path), "--basis", "e", "--json")
    assert code == 0
    assert json.loads(out)["outputs"]["terms"] == [[[1, 1, 1], [1]]]


def test_expand_refuses_large_graphs(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 11, "edges": []}))
    code, _, err = run_cli(capsys, "expand", str(path))
    assert code == 2
    assert "--max-n" in err
    code, out, _ = run_cli(capsys, "expand", str(path), "--max-n", "11")
    assert code == 0


@pytest.mark.parametrize("command", ["expand", "cqf"])
@pytest.mark.parametrize("max_n", ["-1", "-7"])
def test_a_negative_max_n_is_rejected_by_name(capsys, tmp_path, command, max_n):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "edges": []}))
    code, out, err = run_cli(capsys, command, str(path), "--max-n", max_n)
    assert (code, out) == (2, "")
    assert err == f"error: --max-n must be at least 0, got {max_n}\n"


@pytest.mark.parametrize("command", ["expand", "cqf"])
def test_the_vertex_limit_message_counts_one_vertex_in_the_singular(capsys, tmp_path, command):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "edges": []}))
    code, out, err = run_cli(capsys, command, str(path), "--max-n", "0")
    assert (code, out) == (2, "")
    assert err == "error: graph has 1 vertex, above the limit 0; raise it with --max-n\n"
    path.write_text(json.dumps({"n": 2, "edges": []}))
    code, _, err = run_cli(capsys, command, str(path), "--max-n", "1")
    assert code == 2
    assert err == "error: graph has 2 vertices, above the limit 1; raise it with --max-n\n"


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "expand", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n2 2\n")
    code, _, err = run_cli(capsys, "expand", str(bad))
    assert code == 2
    assert "bad.txt:2" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": 3, "edges": [5]}', "'edges'[0]"),
        ('{"n": 3, "edges": [[1.9, 2]]}', "'edges'[0]"),
        ('{"n": true, "edges": []}', "'n'"),
    ],
)
def test_non_integer_json_fields_exit_2(capsys, tmp_path, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "expand", str(path))
    assert code == 2
    assert out == ""
    assert field in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": 3, "covers": [5]}', "'covers'[0]"),
        ('{"n": 3, "covers": [[1.9, 2]]}', "'covers'[0]"),
        ('{"n": false, "covers": []}', "'n'"),
    ],
)
def test_non_integer_poset_fields_exit_2(capsys, tmp_path, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(path), "ptableaux")
    assert code == 2
    assert out == ""
    assert field in err


def test_verify_hook_1(capsys, claw_file):
    code, out, _ = run_cli(capsys, "verify", claw_file, "hook-1")
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.startswith("  ") and "k" not in line]
    assert rows == [["1", "8", "8"], ["2", "5", "5"], ["3", "1", "1"], ["4", "0", "0"]]
    assert "status: ok" in out


def test_verify_chrompoly(capsys, p3_file):
    code, out, _ = run_cli(capsys, "verify", p3_file, "chrompoly", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["table"] == [[0, 0, 0], [1, 0, 0], [2, 2, 2], [3, 12, 12]]


def test_verify_e_sink_and_hook_t(capsys, p3_file):
    for check in ("e-sink", "hook-t"):
        code, out, _ = run_cli(capsys, "verify", p3_file, check)
        assert code == 0
        assert "status: ok" in out


def test_verify_ptableaux(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(CHAIN3_POSET)
    code, out, _ = run_cli(capsys, "verify", str(path), "ptableaux", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["table"] == [[1, 1, 1], [2, 2, 2], [3, 1, 1]]


@pytest.mark.parametrize("labeling", ["9,9", "identity"])
def test_verify_ptableaux_rejects_a_labeling(capsys, tmp_path, labeling):
    path = tmp_path / "chain.json"
    path.write_text(CHAIN3_POSET)
    code, out, err = run_cli(capsys, "verify", str(path), "ptableaux", "--labeling", labeling)
    assert code == 2
    assert out == ""
    assert err == "error: --labeling does not apply to the ptableaux check, which reads a poset\n"


def test_cqf_text_output(capsys, tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"n": 2, "edges": [[1, 2]]}')
    code, out, _ = run_cli(capsys, "cqf", str(path), "--t-eval", "1")
    assert code == 0
    assert "(1,1)  1+t" in out
    assert "routes agree: yes" in out
    assert "symmetric at t=1: yes" in out


def test_cqf_labeling_flag(capsys, tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"n": 2, "edges": [[1, 2]]}')
    code, out, _ = run_cli(capsys, "cqf", str(path), "--labeling", "2,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["labeling"] == [2, 1]
    assert payload["outputs"]["terms"] == [[[1, 1], [1, 1]]]
    code, _, err = run_cli(capsys, "cqf", str(path), "--labeling", "1,1")
    assert code == 2


@pytest.mark.parametrize(
    "labeling, message",
    [
        ("a,b,c", "--labeling: 'a' is not a positive integer; give the labels 1..3"),
        ("", "--labeling: '' is not a positive integer; give the labels 1..3"),
        ("1,,3", "--labeling: '' is not a positive integer; give the labels 1..3"),
        ("1,-2,3", "--labeling: '-2' is not a positive integer; give the labels 1..3"),
        ("9", "--labeling gives 1 labels for a graph with 3 vertices"),
        ("1,2,3,4", "--labeling gives 4 labels for a graph with 3 vertices"),
        ("1,2,4", "--labeling: 4 is outside 1..3"),
        ("2,1,2", "--labeling: 2 appears twice in a permutation of 1..3"),
    ],
)
@pytest.mark.parametrize("command", [["cqf"], ["verify", "chrompoly"]])
def test_bad_labelings_exit_2_naming_the_part_and_the_vertex_count(capsys, p3_file, command, labeling, message):
    argv = [command[0], p3_file, *command[1:], "--labeling", labeling]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cyclic_covers_exit_2(capsys, tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text('{"n": 3, "covers": [[1, 2], [2, 3], [3, 1]]}')
    code, out, err = run_cli(capsys, "verify", str(path), "ptableaux")
    assert (code, out, err) == (2, "", f"error: {path}: cover relations contain a cycle\n")


def test_cqf_verbose_reports_the_4_path_extensions(capsys, tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(P4_JSON)
    code, out, _ = run_cli(capsys, "cqf", str(path), "--verbose")
    assert code == 0
    target = next(
        line for line in out.splitlines() if "arcs: 2->1 2->3 3->4" in line
    )
    assert "omega=1,4,3,2" in target
    assert "extensions: 4132 4312 4321" in target


def test_sweep_small(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "1", "--checks", "hook-1")
    assert code == 0
    assert "cases run: 1" in out
    code, out, _ = run_cli(
        capsys, "sweep", "--max-n", "3", "--checks", "hook-1,e-sink,chrompoly,hook-t"
    )
    assert code == 0
    assert "cases run: 8" in out
    assert "status: ok" in out


def test_sweep_ptableaux(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "3", "--checks", "ptableaux")
    assert code == 0
    assert "cases run: 19" in out


def test_passing_sweep_builds_no_failure_subject(capsys, monkeypatch):
    # The poset's repr only goes into failure records.
    built = []
    monkeypatch.setattr(Poset, "__repr__", lambda p: built.append(p) or "")
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "4", "--checks", "ptableaux", "--json")
    assert code == 0
    assert json.loads(out)["outputs"]["cases"] == 219
    assert built == []


def test_sweep_with_jobs(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "3", "--checks", "hook-1", "--jobs", "2")
    assert code == 0
    assert "cases run: 8" in out


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_1(capsys, jobs):
    code, out, err = run_cli(capsys, "sweep", "--max-n", "3", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_sweep_starts_at_most_one_worker_per_cpu(capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        """Records the worker count it is asked for and runs the tasks in
        this process, so no worker starts."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    argv = ["sweep", "--max-n", "3", "--checks", "hook-1,chrompoly", "--json"]
    _, expected, _ = run_cli(capsys, *argv)
    for cpus, jobs, started in ((2, "64", [2]), (2, "2", [2]), (2, "1", []), (1, "8", []), (None, "8", [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
        assert (code, out, sizes) == (0, expected, started)


def test_sweep_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "sweep", "--max-n", "8")
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--max-n", "3", "--checks", "nonsense")
    assert code == 2
    assert "nonsense" in err


def test_verify_hook_t_uses_labels_from_the_file(capsys, tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"n": 2, "edges": [[1, 2]], "labels": [2, 1]}')
    code, out, _ = run_cli(capsys, "verify", str(path), "hook-t", "--json")
    assert code == 0
    assert json.loads(out)["outputs"]["table"][0] == [1, "1+t", "1+t"]


def test_mathematical_mismatch_exits_1(capsys, claw_file, monkeypatch):
    # force a fake counterexample through the check registry
    readers = {"schur": lambda graph, zeta: (0, 3, 3, 1), "sinks": lambda graph, zeta: (1, 3, 3, 1)}
    monkeypatch.setitem(cli.CHECKS, "hook-1", cli.CHECKS["hook-1"]._replace(readers=readers))
    code, out, _ = run_cli(capsys, "verify", claw_file, "hook-1", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "mismatch"
    assert payload["outputs"]["table"] == [[1, 0, 1], [2, 3, 3], [3, 3, 3], [4, 1, 1]]
    assert payload["outputs"]["failures"] == [
        {"edges": [[1, 2], [1, 3], [1, 4]], "k": 1, "schur": 0, "sinks": 1}
    ]


@pytest.mark.parametrize(
    "check, error",
    [
        pytest.param(check, error, id=check if error is MemoryError else f"{check}-{error.__name__}")
        for error in (MemoryError, OverflowError, RecursionError)
        for check in ("hook-1", "e-sink", "chrompoly")
    ],
)
def test_running_out_of_memory_exits_2(capsys, claw_file, monkeypatch, check, error):
    # a reader that raises stands in for an input too large to check
    def exhausted(graph, zeta):
        raise error

    readers = dict.fromkeys(cli.CHECKS[check].readers, exhausted)
    monkeypatch.setitem(cli.CHECKS, check, cli.CHECKS[check]._replace(readers=readers))
    code, out, err = run_cli(capsys, "verify", claw_file, check)
    cause = "recursion too deep" if error is RecursionError else "out of memory"
    assert code == 2
    assert out == ""
    assert err == f"error: {cause}: the input is too large for the {check} check\n"


@pytest.mark.parametrize(
    "text, argv, task",
    [
        # a 2^63 table is refused at allocation, at once; verify takes no more vertices
        ('{"n": 63}', ["verify", "e-sink"], "out of memory: the input is too large for the e-sink check"),
        ('{"n": 63}', ["verify", "hook-1"], "out of memory: the input is too large for the hook-1 check"),
        ('{"n": 63}', ["verify", "chrompoly"], "out of memory: the input is too large for the chrompoly check"),
        ('{"n": 100}', ["expand", "--max-n", "100"], "out of memory: the input is too large for expand"),
        ('{"n": 100}', ["cqf", "--max-n", "100"], "out of memory: the input is too large for cqf"),
        # a recursion one level per element
        (
            json.dumps({"n": 1500, "covers": [[i, i + 1] for i in range(1, 1500)]}),
            ["verify", "ptableaux"],
            "recursion too deep: the input is too large for the ptableaux check",
        ),
        # a graph is refused by its vertex count before the walk's recursion
        (
            json.dumps({"n": 1200, "edges": [[i, i + 1] for i in range(1, 1200)]}),
            ["verify", "hook-t"],
            "graph has 1200 vertices, above the limit 63 of the graph checks",
        ),
    ],
    ids=["e-sink", "hook-1", "chrompoly", "expand", "cqf", "ptableaux chain", "hook-t path"],
)
def test_an_input_too_large_for_a_table_or_a_recursion_exits_2(capsys, tmp_path, text, argv, task):
    path = tmp_path / "big.json"
    path.write_text(text)
    verb, *rest = argv
    code, out, err = run_cli(capsys, verb, str(path), *rest)
    assert code == 2
    assert out == ""
    assert err == f"error: {task}\n"


GRAPH_CHECKS = [name for name, check in cli.CHECKS.items() if not check.on_posets]


@pytest.mark.parametrize("check", GRAPH_CHECKS)
@pytest.mark.parametrize("n", [2_000_000_000, 70])
def test_verify_refuses_a_graph_of_more_than_63_vertices_at_once(tmp_path, n, check):
    # Before the bound, n = 2e9 spun in building the identity labeling and
    # n = 70 spun in the hook-t walk.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n}))
    run = subprocess.run(
        [sys.executable, "-m", "chromsym", "verify", str(path), check],
        capture_output=True,
        timeout=10,
    )
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr.decode() == f"error: graph has {n} vertices, above the limit 63 of the graph checks\n"


@pytest.mark.parametrize("readers", ["one", "every"])
@pytest.mark.parametrize("check", sorted(cli.CHECKS))
def test_a_value_one_entry_short_exits_2(capsys, tmp_path, monkeypatch, check, readers):
    # A value must give one entry per k.  Short values that are all equal
    # would pass a comparison of whole values: the length is checked too.
    def short(read):
        return lambda target, zeta: read(target, zeta)[:-1]

    names = list(cli.CHECKS[check].readers)
    replaced = {
        name: short(read) if readers == "every" or name == names[-1] else read
        for name, read in cli.CHECKS[check].readers.items()
    }
    monkeypatch.setitem(cli.CHECKS, check, cli.CHECKS[check]._replace(readers=replaced))
    if cli.CHECKS[check].on_posets:
        target = tmp_path / "chain3.json"
        target.write_text(CHAIN3_POSET)
    else:
        target = tmp_path / "claw.json"
        target.write_text(CLAW_JSON)
    code, out, err = run_cli(capsys, "verify", str(target), check)
    assert (code, out) == (2, "")
    assert err.startswith("error: zip() argument")
    code, out, err = run_cli(capsys, "sweep", "--max-n", "3", "--checks", check)
    assert (code, out) == (2, "")
    assert err.startswith("error: zip() argument")


@pytest.mark.parametrize(
    "text, argv",
    [
        (CLAW_JSON, ["expand", "--basis", "s"]),
        (CHAIN3_POSET, ["verify", "ptableaux"]),
        (P3_EDGES, ["cqf"]),  # numbered names: a BOM read as text would relabel the path
    ],
    ids=["graph JSON", "poset JSON", "edge list"],
)
def test_a_leading_byte_order_mark_changes_no_output(capsys, tmp_path, text, argv):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    verb, *rest = argv
    expected = run_cli(capsys, verb, str(plain), *rest, "--json")
    assert expected[0] == 0
    assert run_cli(capsys, verb, str(marked), *rest, "--json") == expected


@pytest.mark.parametrize(
    "argv", [["expand"], ["verify", "ptableaux"]], ids=["graph file", "poset file"]
)
def test_a_file_that_is_not_utf8_exits_2_naming_it(capsys, tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"n": 2}')
    verb, *rest = argv
    code, out, err = run_cli(capsys, verb, str(path), *rest)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"


def test_verify_chrompoly_counts_one_coloring_of_the_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "edges": []}')
    code, out, _ = run_cli(capsys, "verify", str(path), "chrompoly")
    assert code == 0
    assert out.splitlines()[2:] == ["  0  1  1", "status: ok"]


# The function each value's reader calls, by the module that binds it.
READER_BINDINGS = {
    ("hook-t", "f_expansion"): (chromatic, "hook_coefficients_via_extensions_t"),
    ("hook-t", "orientation_sum"): (chromatic, "hook_coefficients_via_orientations_t"),
    ("hook-t", "coloring_route"): (chromatic, "hook_coefficients_via_colorings_t"),
    ("hook-1", "schur"): (chromatic, "hook_coefficients_via_schur"),
    ("hook-1", "sinks"): (chromatic, "hook_coefficients_via_sinks"),
    ("hook-1", "kostka"): (chromatic, "hook_coefficients_via_kostka"),
    ("e-sink", "orientations"): (chromatic, "orientations_by_sinks"),
    ("e-sink", "e_sum"): (chromatic, "e_sums_by_length"),
    ("chrompoly", "specialized"): (chromatic, "chromatic_polynomial_via_specialization"),
    ("chrompoly", "enumerated"): (chromatic, "chromatic_polynomial_via_colorings"),
    ("ptableaux", "tableaux"): (posets, "count_p_tableaux_hooks"),
    ("ptableaux", "schur"): (posets, "incomparability_schur_hooks"),
}


def test_every_value_has_a_reader_binding():
    assert list(READER_BINDINGS) == [(name, value) for name, check in cli.CHECKS.items() for value in check.readers]


@pytest.mark.parametrize("check, value", [pytest.param(*pair, id="-".join(pair)) for pair in READER_BINDINGS])
def test_verify_marks_a_row_where_only_one_reader_fails(capsys, claw_file, tmp_path, monkeypatch, check, value):
    # Each value is compared, shown in the table or not: a reader that goes
    # wrong at its second k alone marks that row.  The reader is replaced
    # where its module binds it, so a reader that the check captured at
    # import, out of reach of a tracer too, would leave the row unmarked.
    module, name = READER_BINDINGS[check, value]
    real = getattr(module, name)

    def wrong_at_second_k(*args):
        got = real(*args)
        return (got[0], got[1] + 1, *got[2:])

    monkeypatch.setattr(module, name, wrong_at_second_k)
    if cli.CHECKS[check].on_posets:
        target = tmp_path / "chain3.json"
        target.write_text(CHAIN3_POSET)
    else:
        target = claw_file
    code, out, _ = run_cli(capsys, "verify", str(target), check)
    assert code == 1
    rows = out.splitlines()[2:-1]
    assert [row.endswith("<- MISMATCH") for row in rows] == [i == 1 for i in range(len(rows))]
    assert out.endswith("status: mismatch\n")
    code, out, _ = run_cli(capsys, "verify", str(target), check, "--json")
    failures = json.loads(out)["outputs"]["failures"]
    k = cli.CHECKS[check].first_k + 1
    assert [f["k"] for f in failures] == [k]
    others = {json.dumps(v) for key, v in failures[0].items() if key in cli.CHECKS[check].readers and key != value}
    assert len(others) == 1  # every other value agrees, and the wrong one does not
    assert json.dumps(failures[0][value]) not in others


def test_verify_hook_1_reads_the_hooks_back_through_kostka_numbers(capsys, claw_file, monkeypatch):
    # A wrong non-hook Schur coefficient leaves the two shown columns equal;
    # the Kostka value of each hook it dominates (k <= 2 for (2, 2)) moves.
    real = chromatic.csf_schur

    def bump_22(graph):
        schur = dict(real(graph))
        schur[(2, 2)] = schur.get((2, 2), 0) + 1
        return schur

    code, out, _ = run_cli(capsys, "verify", claw_file, "hook-1", "--json")
    assert code == 0
    table = json.loads(out)["outputs"]["table"]
    monkeypatch.setattr(chromatic, "csf_schur", bump_22)
    code, out, _ = run_cli(capsys, "verify", claw_file, "hook-1", "--json")
    assert code == 1
    outputs = json.loads(out)["outputs"]
    assert outputs["table"] == table
    assert [f["k"] for f in outputs["failures"]] == [1, 2]
    # off by K((2, 2), (1, 1, 1, 1)) = 2 and K((2, 2), (2, 1, 1)) = 1
    assert [f["schur"] - f["kostka"] for f in outputs["failures"]] == [2, 1]
    assert all(f["schur"] == f["sinks"] for f in outputs["failures"])


RECORD_KEYS = {
    "hook-t": {"edges", "k", "f_expansion", "orientation_sum", "coloring_route"},
    "hook-1": {"edges", "k", "schur", "sinks", "kostka"},
    "e-sink": {"edges", "k", "orientations", "e_sum"},
    "chrompoly": {"edges", "k", "specialized", "enumerated"},
    "ptableaux": {"poset", "k", "tableaux", "schur"},
}


def _fail_on_nonempty_targets(monkeypatch, check):
    # one failing row, k = 1, on every target with an edge (a relation for
    # posets): value i reads i there and 0 everywhere else
    first_k = cli.CHECKS[check].first_k

    def reader(i):
        def read(target, zeta):
            size = target.m if hasattr(target, "edges") else sum(map(int.bit_count, target.above))
            return tuple(i if size and k == 1 else 0 for k in range(first_k, target.n + 1))

        return read

    readers = {name: reader(i) for i, name in enumerate(cli.CHECKS[check].readers)}
    monkeypatch.setitem(cli.CHECKS, check, cli.CHECKS[check]._replace(readers=readers))


@pytest.mark.parametrize("check", sorted(RECORD_KEYS))
def test_sweep_mismatch_stops_at_the_first_failing_case(capsys, monkeypatch, check):
    _fail_on_nonempty_targets(monkeypatch, check)
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "3", "--checks", check, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "mismatch"
    outputs = payload["outputs"]
    # the first case (no edges, or the antichain) passes; the second fails
    assert outputs["cases"] == 2
    assert outputs["aborted_early"] is True
    assert len(outputs["failures"]) == 1
    assert set(outputs["failures"][0]) == RECORD_KEYS[check]
    assert outputs["failures"][0]["k"] == 1


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers must inherit the patched registry"
)
def test_parallel_sweep_stops_at_the_first_failing_case(capsys, monkeypatch):
    # results arrive in case order, so the second case is the first failure
    _fail_on_nonempty_targets(monkeypatch, "hook-1")
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "4", "--jobs", "2", "--json")
    assert code == 1
    outputs = json.loads(out)["outputs"]
    assert (outputs["cases"], outputs["aborted_early"], len(outputs["failures"])) == (2, True, 1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers must inherit the patched registry"
)
def test_parallel_poset_sweep_stops_at_the_first_failing_case(capsys, monkeypatch):
    # posets go to the pool too, and their results also arrive in case order
    _fail_on_nonempty_targets(monkeypatch, "ptableaux")
    argv = ["sweep", "--max-n", "4", "--checks", "hook-1,ptableaux", "--json"]
    code, out, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code == 1
    outputs = json.loads(out)["outputs"]
    # 64 graphs on 4 vertices pass, then the antichain, then a failure
    assert (outputs["cases"], outputs["aborted_early"], len(outputs["failures"])) == (66, True, 1)
    _, serial, _ = run_cli(capsys, *argv, "--keep-going")
    _, parallel, _ = run_cli(capsys, *argv, "--keep-going", "--jobs", "2")
    assert parallel == serial
    assert json.loads(parallel)["outputs"]["cases"] == 64 + 219


def test_sweep_keep_going_runs_every_case(capsys, monkeypatch):
    _fail_on_nonempty_targets(monkeypatch, "hook-1")
    _fail_on_nonempty_targets(monkeypatch, "ptableaux")
    argv = ["sweep", "--max-n", "3", "--checks", "hook-1,ptableaux", "--json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    outputs = json.loads(out)["outputs"]
    assert (outputs["cases"], outputs["aborted_early"]) == (2, True)
    code, out, _ = run_cli(capsys, *argv, "--keep-going")
    assert code == 1
    outputs = json.loads(out)["outputs"]
    # 8 graphs on 3 vertices, then 19 posets on 3 elements; 7 and 18 fail
    assert (outputs["cases"], outputs["aborted_early"]) == (27, False)
    assert len(outputs["failures"]) == 7 + 18
    code, out, _ = run_cli(capsys, *argv[:-1], "--keep-going")
    assert code == 1
    assert out.splitlines()[1:3] == ["cases run: 27", "failures: 25"]
    assert len(out.splitlines()) == 3 + 10 + 1


def test_cli_output_is_byte_deterministic(tmp_path):
    path = tmp_path / "claw.json"
    path.write_text(CLAW_JSON)
    runs = [
        subprocess.run(
            [sys.executable, "-m", "chromsym", "expand", str(path), "--basis", "s", "--json"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    sweeps = [
        subprocess.run(
            [sys.executable, "-m", "chromsym", "sweep", "--max-n", "3", "--checks", "hook-t"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    assert sweeps[0].returncode == 0
    assert sweeps[0].stdout == sweeps[1].stdout


@pytest.mark.parametrize("checks", ["ptableaux", "hook-1,hook-t,e-sink,chrompoly"])
def test_sweep_output_does_not_depend_on_jobs_or_the_hash_seed(checks):
    # the kernels' stores fill in the order each process meets the cases
    runs = [
        subprocess.run(
            [sys.executable, "-m", "chromsym", "sweep", "--max-n", "4", "--checks", checks, "--jobs", jobs],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1")
        for jobs in ("1", "2")
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout.startswith(b"# sweep  n=4")
    assert all(run.stdout == runs[0].stdout for run in runs)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_sweep_output_does_not_depend_on_the_start_method(method):
    # workers that start from a fresh interpreter build their own tables and
    # stores; two CPUs are claimed so that the pool starts on any host
    argv = ["sweep", "--max-n", "4", "--checks", ",".join(cli.CHECKS), "--json"]
    script = (
        "import multiprocessing, os, sys\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "os.cpu_count = lambda: 2\n"
        "from chromsym.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    serial = subprocess.run([sys.executable, "-m", "chromsym", *argv, "--jobs", "1"], capture_output=True)
    parallel = subprocess.run([sys.executable, "-c", script, method, *argv, "--jobs", "2"], capture_output=True)
    assert serial.returncode == parallel.returncode == 0, parallel.stderr
    assert json.loads(serial.stdout)["outputs"]["cases"] == 64 + 219
    assert parallel.stdout == serial.stdout


def test_a_streamed_array_is_written_as_json_dumps_writes_it():
    records = [{"b": [1, 2], "a": {"y": 1, "x": [3]}}, {"b": [], "a": {}}]
    for count in range(3):
        outputs = {"after": [[1], 2], "before": "\u0000 is not the stand-in"}
        payload = {"command": "c", "inputs": {"names": ["\0"]}, "outputs": outputs, "status": "ok"}
        expected = json.dumps({**payload, "outputs": {**outputs, "list": records[:count]}}, indent=2, sort_keys=True)
        assert "".join(cli._json_pieces(payload, ("list", iter(records[:count])))) == expected + "\n"


def test_edge_list_numbering_does_not_depend_on_the_hash_seed(tmp_path):
    # 1 and 01 have the same value; set order must not decide their numbers.
    path = tmp_path / "g.txt"
    path.write_text("1 01\n01 2\n")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "chromsym", "expand", str(path), "--json"],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        for seed in range(8)
    ]
    assert runs[0].returncode == 0
    assert json.loads(runs[0].stdout)["inputs"]["vertex_names"] == ["01", "1", "2"]
    assert all(run.stdout == runs[0].stdout for run in runs)


@pytest.mark.parametrize(
    "argv",
    [["cqf", "--labeling", "3,1,5,2,4", "--json"], ["verify", "hook-t", "--labeling", "3,1,5,2,4", "--json"]],
    ids=["cqf", "verify-hook-t"],
)
def test_kernel_output_does_not_depend_on_the_hash_seed(tmp_path, argv):
    # the route kernels tally their entries in dicts; the bytes must not
    # follow the hash seed's iteration order
    path = tmp_path / "g.json"
    path.write_text('{"n": 5, "edges": [[1, 2], [1, 3], [2, 3], [2, 4], [3, 5], [4, 5]]}')
    runs = [
        subprocess.run(
            [sys.executable, "-m", "chromsym", argv[0], str(path), *argv[1:]],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        for seed in range(4)
    ]
    assert runs[0].returncode == 0
    assert json.loads(runs[0].stdout)["status"] == "ok"
    assert all(run.stdout == runs[0].stdout for run in runs)


@pytest.mark.parametrize(
    "n, edges",
    [(12, [[v, v + 1] for v in range(1, 12)]), (10, [[u, v] for u in range(1, 11) for v in range(u + 1, 11)])],
    ids=["path12", "K10"],
)
def test_verify_chrompoly_finishes_on_path_12_and_k10(tmp_path, n, edges):
    # A coloring DP keyed by edge-direction bits keeps 10! keys on K10 and
    # about 1 GB on path_12; keyed by ascents it stays far below the cap.
    resource = pytest.importorskip("resource")
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": n, "edges": edges}))
    cap = 512 << 20  # bytes of address space

    run = subprocess.run(
        [sys.executable, "-m", "chromsym", "verify", str(path), "chrompoly"],
        capture_output=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode().endswith("status: ok\n")


@pytest.mark.parametrize("check", ["hook-1", "e-sink"])
def test_verify_finishes_on_k10(tmp_path, check):
    # 45 edges: a scan over 2^45 direction masks would never finish.
    path = tmp_path / "k10.json"
    path.write_text(json.dumps({"n": 10, "edges": [[u, v] for u in range(1, 11) for v in range(u + 1, 11)]}))
    run = subprocess.run(
        [sys.executable, "-m", "chromsym", "verify", str(path), check],
        capture_output=True,
        timeout=120,
    )
    assert run.returncode == 0
    assert run.stdout.decode().endswith("status: ok\n")


@pytest.mark.parametrize(
    "edges, orientations",
    [([[v, v + 1] for v in range(1, 12)], 2**11), ([], 1)],
    ids=["path12", "edgeless12"],
)
def test_expand_in_the_e_basis_finishes_at_twelve_vertices(tmp_path, edges, orientations):
    # Bell(11) = 678,570 stable partitions of path_12 and Bell(12) = 4,213,597
    # of the edgeless graph: listing them one at a time takes seconds.
    path = tmp_path / "g12.json"
    path.write_text(json.dumps({"n": 12, "edges": edges}))
    run = subprocess.run(
        [sys.executable, "-m", "chromsym", "expand", str(path), "--basis", "e", "--max-n", "12", "--json"],
        capture_output=True,
        timeout=60,
    )
    assert run.returncode == 0
    payload = json.loads(run.stdout)
    assert payload["status"] == "ok"
    # The e-coefficients sum to the number of acyclic orientations (Stanley 1995).
    assert sum(c for _, (c,) in payload["outputs"]["terms"]) == orientations


def test_verify_ptableaux_rejects_a_graph_file(capsys, claw_file):
    # Read as a poset, the claw's file was an antichain and gave status ok.
    code, out, err = run_cli(capsys, "verify", claw_file, "ptableaux")
    assert code == 2
    assert out == ""
    assert 'unknown field "edges"' in err


@pytest.mark.parametrize("verb, extra", [("expand", []), ("verify", ["ptableaux"])])
def test_deeply_nested_json_exits_2(tmp_path, verb, extra):
    # json.loads raises RecursionError on 100,000 nested lists.
    path = tmp_path / "deep.json"
    path.write_text('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
    run = subprocess.run(
        [sys.executable, "-m", "chromsym", verb, str(path), *extra],
        capture_output=True,
        timeout=60,
    )
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr.decode() == f"error: {path}: invalid JSON: nested too deeply\n"


def test_importing_the_cli_leaves_out_heavy_modules():
    # dataclasses pulls in inspect, ast and dis; only a parallel sweep
    # needs multiprocessing.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, chromsym.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.decode().split())
    assert "chromsym.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "multiprocessing"})
