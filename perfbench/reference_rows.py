"""Repeated timings of the five reference rows quoted in README.md.

    python3 perfbench/reference_rows.py

Each row is one CLI call whose time is dominated by one library function.
The call runs five times untraced (wall time of the whole call) and five
times through the shim (inclusive and self time of that function).
Prints the median and quartiles of each.
"""

from __future__ import annotations

import random
import shutil
import statistics
import sys

import spans as spanlib
from run import WORK, child_env, run_call
from workloads import Call, complete_edges, dense_edges, json_file, path_edges

ROWS = (
    # (label, file, edges, argv, functions whose spans make up the row)
    ("cqf_fundamental_via_orientations(K7)", "k7.json", complete_edges(7), ["cqf", "k7.json"],
     ("chromatic.cqf_fundamental_via_orientations",)),
    ("sink_profile, n=8, m=18", "g818.json", None, ["verify", "g818.json", "e-sink"],
     ("chromatic.sink_profile",)),
    ("cqf_monomial(path_8)", "p8.json", path_edges(8), ["cqf", "p8.json"],
     ("chromatic.cqf_monomial",)),
    ("m_to_e(csf_monomial(path_12))", "p12.json", path_edges(12), ["expand", "p12.json", "--basis", "e", "--max-n", "12"],
     ("symfunc.m_to_e",)),
    # expand --basis s calls csf_monomial and m_to_s, which is csf_schur.
    ("csf_schur(path_12)", "p12.json", path_edges(12), ["expand", "p12.json", "--basis", "s", "--max-n", "12"],
     ("chromatic.csf_monomial", "symfunc.m_to_s")),
)


REPEATS = 5


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.3f} [{q1:.3f}, {q3:.3f}]"


def main() -> int:
    env = child_env()
    inputs = WORK / "reference-rows"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        for label, fname, edges, argv, functions in ROWS:
            if edges is None:
                edges = dense_edges(random.Random("reference:1"), 8, 18)
            n = max(max(e) for e in edges)
            (inputs / fname).write_bytes(json_file(n, edges))
            call = Call(label, argv)
            plain, inclusive, self_s = [], [], []
            for _ in range(REPEATS):
                ex = run_call(call, False, inputs, env)
                if ex.returncode != 0:
                    sys.stderr.write(f"{label}: exit code {ex.returncode}\n")
                    return 1
                plain.append(ex.wall_s)
                traced = run_call(call, True, inputs, env)
                named = [(traced.spans["names"][s[0]], *s[1:]) for s in traced.spans["spans"]]
                selfs = spanlib.self_times(named)
                inclusive.append(sum(s[2] - s[1] for s in named if s[0] in functions))
                self_s.append(sum(t for s, t in zip(named, selfs) if s[0] in functions))
            print(
                f"| {label} | {quartiles(plain)} | {' + '.join(functions)} | {quartiles(inclusive)} | {quartiles(self_s)} |",
                flush=True,
            )
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
