"""Record the reference stdout of every call for the default seed.

    python3 perfbench/record.py

Sweeps are recorded with ``--jobs 1``, so the benchmark's ``--jobs 2``
calls are held to the sequential output.  Each output must pass the
independent checks before it is written.  Re-record only for a change
that is meant to alter CLI output.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace

from checks import check_output
from run import REFERENCE, WORK, child_env, run_call, setup
from workloads import DEFAULT_SEED, WORKLOADS, sequential_argv


def main() -> int:
    env = child_env()
    for name in WORKLOADS:
        inputs = WORK / f"record-{name}"
        try:
            calls, _ = setup(name, DEFAULT_SEED, inputs, env)
            target = REFERENCE / name
            target.mkdir(parents=True, exist_ok=True)
            for call in calls:
                ex = run_call(replace(call, argv=sequential_argv(call.argv)), False, inputs, env)
                problems = check_output(call, ex.stdout.decode()) if ex.returncode == 0 else ["exit code"]
                if problems:
                    sys.stderr.write(f"{name}/{call.call_id}: {problems}\n")
                    return 1
                (target / f"{call.call_id}.out").write_bytes(ex.stdout)
                print(f"{name}/{call.call_id}: {len(ex.stdout)} bytes, {ex.wall_s:.2f} s")
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
