"""Byte-for-byte CLI output on a fixed corpus.

Each case runs ``chromsym.cli.main`` in process and compares its stdout
with ``golden/<name>.out`` and its exit code with ``golden/codes.json``.
To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chromsym.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

GRAPHS = {"claw": "claw.json", "p3": "p3.txt", "k4": "k4_labeled.json"}
LABELINGS = {"claw": "4,3,2,1", "p3": "2,3,1", "k4": "identity"}
VERIFY_GRAPHS = {**GRAPHS, "empty": "empty.json"}
GRAPH_CHECKS = ("hook-t", "hook-1", "e-sink", "chrompoly")


def _cases():
    cases = []
    for g, path in GRAPHS.items():
        for basis in ("m", "s", "e"):
            cases.append((f"expand-{g}-{basis}", ["expand", path, "--basis", basis]))
        cqf_flags = {
            "plain": [],
            "t1": ["--t-eval", "1"],
            "verbose": ["--verbose"],
            "labeling": ["--labeling", LABELINGS[g]],
        }
        for flag_name, flags in cqf_flags.items():
            cases.append((f"cqf-{g}-{flag_name}", ["cqf", path, *flags]))
    for g, path in VERIFY_GRAPHS.items():
        for check in GRAPH_CHECKS:
            cases.append((f"verify-{g}-{check}", ["verify", path, check]))
    cases.append(("verify-claw-hook-t-labeling", ["verify", "claw.json", "hook-t", "--labeling", "2,1,4,3"]))
    cases.append(("verify-chain3-ptableaux", ["verify", "chain3.json", "ptableaux"]))
    cases.append(("sweep-3-all", ["sweep", "--max-n", "3", "--checks", ",".join(GRAPH_CHECKS + ("ptableaux",))]))
    return [
        (f"{name}{suffix}", argv + extra)
        for name, argv in cases
        for suffix, extra in (("", []), ("-json", ["--json"]))
    ]


CASES = _cases()


def _run(argv):
    resolved = [str(INPUTS / a) if (INPUTS / a).is_file() else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(resolved)
    return code, out.getvalue()


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden_bytes(name, argv):
    code, out = _run(argv)
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert code == json.loads((GOLDEN / "codes.json").read_text())[name]


def _record() -> None:
    codes = {}
    for name, argv in CASES:
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
    (GOLDEN / "codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
