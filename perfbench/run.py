"""Benchmark of the chromsym CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client calls ``python -m chromsym``
in a fresh process, one call at a time (a closed loop), and repeats the
workload's list of calls (a pass) until ``--seconds`` are used up, with at
least three passes.  Each untraced call runs through ``launch.py``, which
also times a fixed loop in the call's process; the call's times are scaled
by that loop's speed (see Noise in README.md).  Every call's output is
checked.  With ``--trace 1``
passes alternate between untraced calls and calls run through ``shim.py``,
which reports time per library function.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details: the
environment, each call's times and any problems found.  See README.md for
what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans as spanlib  # noqa: E402
from checks import check_output  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Call, build, sequential_argv, write_inputs  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORK = HERE / "_work"

SETUP_REPEATS = 7
MIN_PASSES = {0: 3, 1: 2}

# The host's speed drifts by a third or more over seconds to minutes, for
# every process alike: CPU time drifts with wall time.  launch.py times a
# fixed loop in the call's own process just before and just after the
# call; the call's times are scaled to a host on which that loop takes
# PROBE_REFERENCE_S.  The raw times stay in the details line.
PROBE_REFERENCE_S = 0.025


@dataclass
class Execution:
    """One finished call."""

    call: Call
    traced: bool
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: bytes
    stderr: bytes
    spans: dict | None = None
    problems: list[str] = field(default_factory=list)
    # PROBE_REFERENCE_S over the mean loop time around an untraced call.
    scale: float = 1.0


@dataclass
class Run:
    passes: list[list[Execution]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment


def _cgroup_cpu_max() -> str:
    """The cgroup CPU quota, read-only: v2 ``cpu.max`` or v1 quota/period."""
    try:
        lines = Path("/proc/self/cgroup").read_text().splitlines()
    except OSError:
        return "unavailable"
    for line in lines:
        _, controllers, path = line.split(":", 2)
        base = Path("/sys/fs/cgroup") / path.lstrip("/")
        if controllers == "":
            candidates = [base / "cpu.max"]
        elif "cpu" in controllers.split(","):
            v1 = Path("/sys/fs/cgroup/cpu") / path.lstrip("/")
            candidates = [v1 / "cpu.cfs_quota_us"]
        else:
            continue
        for candidate in candidates:
            try:
                text = candidate.read_text().strip()
            except OSError:
                continue
            if candidate.name == "cpu.cfs_quota_us":
                period = (candidate.parent / "cpu.cfs_period_us").read_text().strip()
                text = f"{text} {period}"
            return text
    return "unavailable"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "cgroup_cpu_max": _cgroup_cpu_max(),
    }


# ---------------------------------------------------------------------------
# calls


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def read_speed(path: Path) -> tuple[float, float]:
    """Total time of launch.py's two loops, and the scale they give."""
    before, after = (float(x) for x in path.read_text().split())
    path.unlink()
    return before + after, PROBE_REFERENCE_S / ((before + after) / 2)


def run_call(call: Call, traced: bool, inputs: Path, env: dict) -> Execution:
    """Run one call in a fresh process and collect its rusage.

    ``os.wait4`` reports the child's CPU time and peak RSS including the
    pool workers it has reaped.  An untraced call's times leave out the
    two speed probes that launch.py runs around it.
    """
    out_path, err_path = inputs / ".stdout", inputs / ".stderr"
    span_path, speed_path = inputs / ".spans", inputs / ".speed"
    if traced:
        cmd = [sys.executable, str(HERE / "shim.py"), str(span_path), "--", *sequential_argv(call.argv)]
    else:
        cmd = [sys.executable, str(HERE / "launch.py"), str(speed_path), "--", *call.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=inputs, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    spans = None
    scale = 1.0
    if traced and span_path.exists():
        spans = json.loads(span_path.read_text())
        span_path.unlink()
    if not traced and speed_path.exists():
        probes, scale = read_speed(speed_path)
        wall -= probes
        cpu -= probes
    return Execution(
        call=call,
        traced=traced,
        wall_s=wall,
        cpu_s=cpu,
        maxrss_kb=usage.ru_maxrss,
        returncode=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        spans=spans,
        scale=scale,
    )


def setup(name: str, seed: int, inputs: Path, env: dict) -> tuple[list[Call], list[float]]:
    """Generate the inputs and import chromsym once, several times over.

    Returns the calls and the time of each set-up, scaled for host speed
    like a call.  Inputs must come out byte-identical every time.
    """
    times = []
    first = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        workload = build(name, seed)
        write_inputs(workload, inputs)
        speed_path = inputs / ".speed"
        imported = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), str(speed_path), "--"],
            cwd=inputs,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
        )
        elapsed = time.perf_counter() - start
        if imported.returncode != 0:
            fail("cannot import chromsym from src/: " + imported.stderr.decode(errors="replace").strip())
        probes, scale = read_speed(speed_path)
        times.append((elapsed - probes) * scale)
        files = {p.name: p.read_bytes() for p in sorted(inputs.iterdir())}
        if first is not None and files != first:
            fail(f"inputs for seed {seed} differ between two generations")
        first = files
    return workload.calls, times


# ---------------------------------------------------------------------------
# checking


class Checker:
    """Pass/fail for each execution, with independent checks cached per output."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.first: dict[str, bytes] = {}
        self.verdicts: dict[tuple[str, bytes], list[str]] = {}

    def reference(self, call: Call) -> bytes | None:
        if self.seed != DEFAULT_SEED and not call.seed_independent:
            return None
        path = REFERENCE / self.workload / f"{call.call_id}.out"
        if not path.is_file():
            fail(f"missing reference output {path.relative_to(ROOT)}")
        return path.read_bytes()

    def problems(self, ex: Execution) -> list[str]:
        call = ex.call
        if ex.returncode != 0:
            tail = ex.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"exit code {ex.returncode}: {' '.join(tail)}"]
        problems = []
        expected = self.reference(call)
        if expected is None:
            # Without a reference, every execution must repeat the first.
            expected = self.first.setdefault(call.call_id, ex.stdout)
        if ex.stdout != expected:
            problems.append("stdout differs from the reference bytes")
        key = (call.call_id, ex.stdout)
        if key not in self.verdicts:
            self.verdicts[key] = check_output(call, ex.stdout.decode())
        return problems + self.verdicts[key]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    executions = [ex for p in run.passes for ex in p]
    by_call: dict[str, list[Execution]] = {}
    for ex in executions:
        by_call.setdefault(ex.call.call_id, []).append(ex)
    # A pass's wall and CPU time are estimated call by call: each call's
    # median over the passes, summed.  A slow spell of the machine then
    # has to hit most passes of a call to move the figure.
    wall = sum(statistics.median(e.wall_s * e.scale for e in exs) for exs in by_call.values())
    cpu = sum(statistics.median(e.cpu_s * e.scale for e in exs) for exs in by_call.values())
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "call_s.p50": {"value": statistics.median(e.wall_s * e.scale for e in executions), "unit": "s"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "peak_rss_mb": {"value": max(e.maxrss_kb for e in executions) / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def _jobs(call: Call) -> int:
    return int(call.argv[call.argv.index("--jobs") + 1]) if "--jobs" in call.argv else 1


# Modules whose functions the shim traces; each is a layer.
MODULES = ("graphs", "chromatic", "symfunc", "tableaux", "partitions", "tpoly", "posets")

# Per-layer metrics named <function>.<field>, read straight from the table
# pass_layers builds; the rest are derived there.
LAYER_FIELDS = {"calls": 0, "self_s": 1, "items": 2}
PLAIN_LAYER_METRICS = (
    "graphs.parse_graph_text.self_s",
    "graphs.stable_partitions_by_type.self_s",
    "graphs.stable_partitions_by_type.items",
    "graphs.proper_colorings_bounded.self_s",
    "graphs.proper_colorings_bounded.calls",
    "graphs.proper_colorings_bounded.items",
    "graphs.acyclic_orientations.self_s",
    "graphs.acyclic_orientations.items",
    "chromatic.csf_monomial.self_s",
    "chromatic.csf_monomial.calls",
    "chromatic.cqf_monomial.self_s",
    "chromatic.cqf_monomial.items",
    "chromatic.cqf_fundamental_via_orientations.self_s",
    "chromatic.hook_coefficient_via_orientations_t.self_s",
    "chromatic.chromatic_polynomial_value.calls",
    "symfunc.m_to_s.self_s",
    "symfunc.m_to_e.self_s",
    "symfunc.qsym_M_to_F.self_s",
    "symfunc.is_symmetric.self_s",
    "symfunc.specialize_w_k.self_s",
    "tableaux.kostka.calls",
    "tableaux.kostka.self_s",
    "tableaux.descent_set.calls",
    "tableaux.descent_set.self_s",
    "partitions.composition_from_descents.calls",
    "partitions.composition_from_descents.self_s",
    "tpoly.TPoly.self_s",
    "posets.all_posets.items",
    "posets.all_posets.self_s",
    "posets.count_p_tableaux_hook.calls",
    "posets.count_p_tableaux_hook.self_s",
)


def pass_layers(executions: list[Execution]) -> dict[str, float]:
    """Per-layer totals over one traced pass."""
    executions = [ex for ex in executions if ex.spans]
    table: dict[str, list] = {}  # function -> [calls, self seconds, items]

    def add(name, calls, seconds, items):
        entry = table.setdefault(name, [0, 0.0, 0])
        entry[0] += calls
        entry[1] += seconds
        entry[2] += items

    sink_orientations = 0
    accounted, spanned, install = [], [], []
    for ex in executions:
        data = ex.spans
        named = [(data["names"][nid], *rest) for nid, *rest in data["spans"]]
        per_call = spanlib.aggregate(named)
        for name, (calls, self_s) in per_call.items():
            add(name, calls, self_s, data["items"].get(name, 0))
        for name, (calls, seconds, items) in data["leaves"].items():
            add(name, calls, seconds, items)
        sink_orientations += data["sink_orientations"]
        # Shares of the wall time the client saw for this call.  Interpreter
        # start-up and exit lie outside the root span, and the import of
        # chromsym outside main(), so short calls score low on the first two.
        library = sum(self_s for name, (_, self_s) in per_call.items() if name.split(".")[0] in MODULES)
        library += sum(seconds for _, seconds, _ in data["leaves"].values())
        root = named[0][2] - named[0][1]
        accounted.append((library + per_call["cli.main"][1]) / ex.wall_s)
        spanned.append(root / ex.wall_s)
        # The root span's own self time is the shim's set-up and wrapping.
        install.append(per_call["call"][1] / root)

    def get(name, field):
        return table.get(name, [0, 0.0, 0])[LAYER_FIELDS[field]]

    def per(numerator, denominator):
        return numerator / denominator * 1e6 if denominator else 0.0

    out = {m: get(*m.rsplit(".", 1)) for m in PLAIN_LAYER_METRICS}
    sink_s = get("chromatic.sink_profile", "self_s") + get("chromatic.hook_coefficient_via_sinks", "self_s")
    out.update(
        {
            "cli.import_s": get("cli.import", "self_s"),
            "cli.self_s": get("cli.main", "self_s"),
            "graphs.stable_partitions_by_type.us_per_item": per(
                out["graphs.stable_partitions_by_type.self_s"], out["graphs.stable_partitions_by_type.items"]
            ),
            "chromatic.sink_profile.self_s": sink_s,
            "chromatic.sink_profile.us_per_orientation": per(sink_s, sink_orientations),
            "chromatic.linear_extensions.items": get("chromatic.cqf_fundamental_via_orientations", "items"),
            "tableaux.kostka.us_per_call": per(out["tableaux.kostka.self_s"], out["tableaux.kostka.calls"]),
            "tpoly.TPoly.ops": get("tpoly.TPoly", "calls"),
            "trace.accounted_frac": min(accounted),
            "trace.spanned_frac": min(spanned),
            "trace.install_frac": max(install),
        }
    )
    for module in MODULES:
        out[f"{module}.self_s"] = sum(entry[1] for name, entry in table.items() if name.split(".")[0] == module)
    return out


def layer_metrics(run: Run) -> dict[str, float]:
    traced = [p for p in run.passes if p[0].traced]
    plain = [p for p in run.passes if not p[0].traced]
    per_pass = [pass_layers(p) for p in traced]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    # Sweeps are traced with --jobs 1, so only calls whose argv is the
    # same in both kinds of pass enter the overhead ratio.
    same = [c.call_id for c in (ex.call for ex in plain[0]) if sequential_argv(c.argv) == c.argv]
    out["trace.overhead_ratio"] = statistics.median(
        sum(ex.wall_s for ex in p if ex.call.call_id in same) for p in traced
    ) / statistics.median(sum(ex.wall_s for ex in p if ex.call.call_id in same) for p in plain)
    plain_ex = [ex for p in plain for ex in p]
    out["cli.cpu_util"] = sum(ex.cpu_s for ex in plain_ex) / sum(ex.wall_s * _jobs(ex.call) for ex in plain_ex)
    return out


# ---------------------------------------------------------------------------
# main


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("us_per", name.rfind(".") + 1):
        return "us"
    if name.endswith((".calls", ".items", ".ops")):
        return "count"
    return "ratio"


def per_layer_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
    return [m["name"] for m in spec.get("per_layer", [])]


def measure(name: str, seed: int, seconds: float, trace: int, calls: list[Call], inputs: Path, env: dict) -> Run:
    run = Run()
    checker = Checker(name, seed)
    durations: dict[bool, list[float]] = {False: [], True: []}
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(run.passes) % 2 == 1
        elapsed = time.perf_counter() - started
        estimate = durations[traced] or durations[False]
        if len(run.passes) >= MIN_PASSES[trace] and (
            not estimate or elapsed + statistics.median(estimate) > seconds
        ):
            break
        pass_start = time.perf_counter()
        executions = []
        for call in calls:
            ex = run_call(call, traced, inputs, env)
            ex.problems = checker.problems(ex)
            if traced and ex.spans is None:
                ex.problems.append("traced call wrote no spans")
            run.problems += [f"{call.call_id} (pass {len(run.passes)}): {p}" for p in ex.problems]
            executions.append(ex)
        run.passes.append(executions)
        durations[traced].append(time.perf_counter() - pass_start)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination request unwinds like an exception, so the running call
    # is killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "chromsym" / "cli.py").is_file():
        fail(f"no chromsym sources under {SRC}; run from the root of a checkout")
    env_before = environment()
    env = child_env()
    inputs = WORK / f"{args.workload}-{os.getpid()}"
    try:
        calls, setup_times = setup(args.workload, args.seed, inputs, env)
        run = measure(args.workload, args.seed, args.seconds, args.trace, calls, inputs, env)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    executions = [ex for p in run.passes for ex in p]
    failed = sum(1 for ex in executions if ex.problems)
    if args.trace:
        layers = layer_metrics(run)
        wanted = per_layer_names() or sorted(layers)
        metrics = {n: {"value": layers[n], "unit": unit_of(n)} for n in wanted}
    else:
        layers = {}
        metrics = end_to_end(run, setup_times)

    by_call: dict[str, dict] = {}
    for ex in executions:
        entry = by_call.setdefault(
            ex.call.call_id, {"argv": ex.call.argv, "raw_wall_s": [], "raw_cpu_s": [], "scale": [], "traced": []}
        )
        entry["raw_wall_s"].append(round(ex.wall_s, 4))
        entry["raw_cpu_s"].append(round(ex.cpu_s, 4))
        entry["scale"].append(round(ex.scale, 4))
        entry["traced"].append(ex.traced)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(run.passes),
        "environment": {"before": env_before, "after": environment()},
        "setup_s": setup_times,
        "calls": by_call,
        "layers": layers,
        "problems": run.problems,
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not run.problems,
        "attempted": len(executions),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
