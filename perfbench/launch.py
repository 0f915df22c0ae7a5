"""Run one chromsym CLI call between two timings of a fixed loop.

    python3 launch.py SPEED_OUT -- <chromsym arguments>

This does what ``python -m chromsym <arguments>`` does: import
``chromsym.cli`` and exit with ``main(argv)``.  With no arguments it only
imports, as the benchmark's set-up does.  Before the import and after
main returns, it times a fixed pure-Python loop in the same process, and
writes the two times to SPEED_OUT.  They measure how fast the host ran
this process around the call; see "Noise" in README.md.
"""

from __future__ import annotations

import sys
import time

LOOP_ITERATIONS = 300_000


def speed_probe() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def main() -> int:
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: launch.py SPEED_OUT -- <chromsym arguments>")
    argv = sys.argv[3:]
    before = speed_probe()
    import chromsym.cli

    code = 0
    if argv:
        try:
            code = chromsym.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    after = speed_probe()
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"{before!r} {after!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
