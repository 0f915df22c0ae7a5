"""Command-line interface: expansions, quasisymmetric reports, two-route
identity checks, and exhaustive small-graph sweeps.

Exit codes: 0 all checks pass, 1 a mathematical comparison failed,
2 input or usage error.  Output is deterministic: identical inputs and
flags produce identical bytes (timing is tracked on the report object
but never rendered).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .chromatic import (
    chromatic_polynomial_value,
    cqf_fundamental_via_orientations,
    cqf_monomial,
    csf_monomial,
    csf_schur,
    dual_linear_extensions,
    hook_coefficient_via_orientations_t,
    hook_coefficient_via_sinks,
    sink_minimal_increasing_labeling,
    verify_e_sink_identity,
)
from .graphs import (
    Graph,
    Labeling,
    acyclic_orientations,
    descents,
    load_graph,
    proper_colorings_bounded,
)
from .partitions import hook_partition
from .posets import all_posets, load_poset, verify_hook_proposition
from .symfunc import (
    canonical_items,
    collapse_t,
    hook_coefficient_of_F,
    is_symmetric,
    m_to_e,
    m_to_s,
    qsym_M_to_F,
)
from .tpoly import TPoly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2

GRAPH_CHECKS = ("hook-t", "hook-1", "e-sink", "chrompoly")
POSET_CHECKS = ("ptableaux",)


@dataclass
class RunReport:
    """Outcome of one command.

    ``timing`` is kept for programmatic use only; it is excluded from both
    text and JSON rendering so that reruns are byte-identical.
    """

    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    status: str = "ok"
    timing: float = 0.0

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "status": self.status,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_INPUT


def _key_str(key) -> str:
    return "(" + ",".join(str(p) for p in key) + ")"


def _coeff_str(c) -> str:
    return str(c) if isinstance(c, int) else str(TPoly(c.coeffs))


def _emit_table(lines: list[str], items) -> None:
    rows = [(_key_str(key), _coeff_str(c)) for key, c in items]
    width = max((len(k) for k, _ in rows), default=0)
    for k, c in rows:
        lines.append(f"  {k.ljust(width)}  {c}")


def _terms_json(items) -> list:
    out = []
    for key, c in items:
        coeffs = [c] if isinstance(c, int) else list(c.coeffs)
        out.append([list(key), coeffs])
    return out


def _graph_inputs(graph: Graph, zeta: Labeling | None = None, names=None) -> dict:
    inputs: dict = {"n": graph.n, "edges": [list(e) for e in graph.edges]}
    if zeta is not None:
        inputs["labeling"] = list(zeta.labels)
    if names is not None:
        inputs["vertex_names"] = list(names)
    return inputs


def _resolve_labeling(args, loaded: Labeling | None, n: int) -> Labeling:
    if getattr(args, "labeling", None):
        if args.labeling == "identity":
            return Labeling.identity(n)
        parts = [p for p in args.labeling.split(",") if p.strip()]
        return Labeling(int(p) for p in parts)
    if loaded is not None:
        return loaded
    return Labeling.identity(n)


# ---------------------------------------------------------------------------
# expand


def cmd_expand(args) -> int:
    started = time.perf_counter()
    loaded = load_graph(args.graph)
    graph = loaded.graph
    if graph.n > args.max_n:
        raise ValueError(
            f"graph has {graph.n} vertices, above the limit {args.max_n}; "
            "raise it with --max-n"
        )
    f = csf_monomial(graph)
    if args.basis == "m":
        terms = canonical_items(f)
    elif args.basis == "s":
        coeffs = m_to_s(f)
        terms = [(lam, coeffs[lam]) for lam in sorted(coeffs, reverse=True)]
    else:
        coeffs = m_to_e(f)
        terms = [(lam, coeffs[lam]) for lam in sorted(coeffs, reverse=True)]
    report = RunReport(
        command="expand",
        inputs=_graph_inputs(graph, names=loaded.names),
        outputs={"basis": args.basis, "terms": _terms_json(terms)},
        timing=time.perf_counter() - started,
    )
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        lines = [f"# expand  basis={args.basis}  n={graph.n}  edges={len(graph.edges)}"]
        _emit_table(lines, terms)
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cqf


def cmd_cqf(args) -> int:
    started = time.perf_counter()
    loaded = load_graph(args.graph)
    graph = loaded.graph
    if graph.n > args.max_n:
        raise ValueError(
            f"graph has {graph.n} vertices, above the limit {args.max_n}; "
            "raise it with --max-n"
        )
    zeta = _resolve_labeling(args, loaded.labeling, graph.n)
    via_colorings = qsym_M_to_F(cqf_monomial(graph, zeta))
    via_orientations = cqf_fundamental_via_orientations(graph, zeta)
    keys = sorted(set(via_colorings.coeffs) | set(via_orientations.coeffs), reverse=True)
    diffs = [
        k
        for k in keys
        if via_colorings.coefficient(k) != via_orientations.coefficient(k)
    ]
    status = "ok" if not diffs else "mismatch"

    outputs: dict = {
        "terms": _terms_json([(k, via_orientations.coefficient(k)) for k in keys]),
        "routes_agree": not diffs,
    }
    if diffs:
        outputs["diffs"] = [
            [
                list(k),
                list(via_colorings.coefficient(k).coeffs),
                list(via_orientations.coefficient(k).coeffs),
            ]
            for k in diffs
        ]
    if args.t_eval is not None:
        collapsed = collapse_t(cqf_monomial(graph, zeta))
        outputs["t_eval"] = 1
        outputs["symmetric_at_1"] = is_symmetric(collapsed)

    lines = [
        f"# cqf  n={graph.n}  edges={len(graph.edges)}  "
        f"labeling={','.join(str(x) for x in zeta.labels)}"
    ]
    lines.append("F-expansion (orientation route):")
    _emit_table(lines, [(k, via_orientations.coefficient(k)) for k in keys])
    if diffs:
        lines.append("route disagreement at:")
        for k in diffs:
            lines.append(
                f"  {_key_str(k)}  colorings={via_colorings.coefficient(k)}  "
                f"orientations={via_orientations.coefficient(k)}"
            )
    else:
        lines.append("routes agree: yes")
    if args.t_eval is not None:
        lines.append(f"symmetric at t=1: {'yes' if outputs['symmetric_at_1'] else 'no'}")

    if args.verbose:
        lines.append("orientations:")
        extensions_json = []
        for o in acyclic_orientations(graph):
            omega = sink_minimal_increasing_labeling(o)
            words = dual_linear_extensions(o, omega)
            arcs = " ".join(f"{u}->{v}" for u, v in o.arcs) or "(none)"
            word_strs = ["".join(str(x) for x in w) for w in words]
            lines.append(
                f"  arcs: {arcs}  des={descents(o, zeta)}  snk={o.sinks()}  "
                f"omega={','.join(str(x) for x in omega.labels)}  "
                f"extensions: {' '.join(word_strs)}"
            )
            extensions_json.append(
                {
                    "arcs": [list(a) for a in o.arcs],
                    "des": descents(o, zeta),
                    "snk": o.sinks(),
                    "omega": list(omega.labels),
                    "extensions": word_strs,
                }
            )
        outputs["orientations"] = extensions_json

    report = RunReport(
        command="cqf",
        inputs=_graph_inputs(graph, zeta, loaded.names),
        outputs=outputs,
        status=status,
        timing=time.perf_counter() - started,
    )
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        lines.append(f"status: {status}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if not diffs else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# verify


def _check_hook_1(graph: Graph) -> list[dict]:
    schur = csf_schur(graph)
    failures = []
    for k in range(1, graph.n + 1):
        lhs = schur.get(hook_partition(graph.n, k), 0)
        rhs = hook_coefficient_via_sinks(graph, k)
        if lhs != rhs:
            failures.append(
                {"edges": [list(e) for e in graph.edges], "k": k, "schur": lhs, "sinks": rhs}
            )
    return failures


def _check_hook_t(graph: Graph, zeta: Labeling | None = None) -> list[dict]:
    direct = cqf_fundamental_via_orientations(graph, zeta)
    converted = qsym_M_to_F(cqf_monomial(graph, zeta))
    failures = []
    for k in range(1, graph.n + 1):
        a = hook_coefficient_of_F(direct, k)
        b = hook_coefficient_via_orientations_t(graph, zeta, k)
        c = hook_coefficient_of_F(converted, k)
        if not (a == b == c):
            failures.append(
                {
                    "edges": [list(e) for e in graph.edges],
                    "k": k,
                    "f_expansion": list(a.coeffs),
                    "orientation_sum": list(b.coeffs),
                    "coloring_route": list(c.coeffs),
                }
            )
    return failures


def _check_e_sink(graph: Graph) -> list[dict]:
    report = verify_e_sink_identity(graph)
    return [
        {"edges": [list(e) for e in graph.edges], "k": k, "orientations": a, "e_sum": b}
        for k, (a, b) in report.per_k.items()
        if a != b
    ]


def _check_chrompoly(graph: Graph) -> list[dict]:
    failures = []
    for k in range(graph.n + 1):
        lhs = chromatic_polynomial_value(graph, k)
        rhs = sum(1 for _ in proper_colorings_bounded(graph, k)) if k else 0
        if lhs != rhs:
            failures.append(
                {
                    "edges": [list(e) for e in graph.edges],
                    "k": k,
                    "specialized": lhs,
                    "enumerated": rhs,
                }
            )
    return failures


def _check_ptableaux(poset) -> list[dict]:
    report = verify_hook_proposition(poset)
    return [
        {"poset": repr(poset), "k": k, "tableaux": a, "schur": b}
        for k, (a, b) in report.per_k.items()
        if a != b
    ]


def _verify_table(args, check: str, target, file_labeling=None) -> tuple[list[tuple], list[dict]]:
    """Per-k (label, lhs, rhs) rows plus failure records."""
    rows: list[tuple] = []
    if check == "hook-1":
        schur = csf_schur(target)
        for k in range(1, target.n + 1):
            rows.append(
                (
                    k,
                    schur.get(hook_partition(target.n, k), 0),
                    hook_coefficient_via_sinks(target, k),
                )
            )
        failures = _check_hook_1(target)
    elif check == "hook-t":
        zeta = _resolve_labeling(args, file_labeling, target.n)
        direct = cqf_fundamental_via_orientations(target, zeta)
        for k in range(1, target.n + 1):
            rows.append(
                (
                    k,
                    str(hook_coefficient_of_F(direct, k)),
                    str(hook_coefficient_via_orientations_t(target, zeta, k)),
                )
            )
        failures = _check_hook_t(target, zeta)
    elif check == "e-sink":
        report = verify_e_sink_identity(target)
        rows = [(k, a, b) for k, (a, b) in sorted(report.per_k.items())]
        failures = _check_e_sink(target)
    elif check == "chrompoly":
        for k in range(target.n + 1):
            rhs = sum(1 for _ in proper_colorings_bounded(target, k)) if k else 0
            rows.append((k, chromatic_polynomial_value(target, k), rhs))
        failures = _check_chrompoly(target)
    else:  # ptableaux
        report = verify_hook_proposition(target)
        rows = [(k, a, b) for k, (a, b) in sorted(report.per_k.items())]
        failures = _check_ptableaux(target)
    return rows, failures


def cmd_verify(args) -> int:
    started = time.perf_counter()
    file_labeling = None
    if args.check in POSET_CHECKS:
        target = load_poset(args.input)
        inputs = {"poset": repr(target)}
    else:
        loaded = load_graph(args.input)
        target = loaded.graph
        file_labeling = loaded.labeling
        inputs = _graph_inputs(target, names=loaded.names)
    rows, failures = _verify_table(args, args.check, target, file_labeling)
    status = "ok" if not failures else "mismatch"
    report = RunReport(
        command="verify",
        inputs=inputs,
        outputs={
            "check": args.check,
            "table": [list(r) for r in rows],
            "failures": failures,
        },
        status=status,
        timing=time.perf_counter() - started,
    )
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        lines = [f"# verify  check={args.check}"]
        lines.append("  k  lhs  rhs")
        for k, lhs, rhs in rows:
            mark = "" if lhs == rhs else "  <- MISMATCH"
            lines.append(f"  {k}  {lhs}  {rhs}{mark}")
        lines.append(f"status: {status}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if not failures else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# sweep


_CHECK_FUNCTIONS = {
    "hook-1": _check_hook_1,
    "hook-t": _check_hook_t,
    "e-sink": _check_e_sink,
    "chrompoly": _check_chrompoly,
}


def _sweep_graph_worker(task) -> tuple[int, list[dict]]:
    n, mask, checks = task
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    graph = Graph(n, edges)
    failures: list[dict] = []
    for check in checks:
        failures.extend(_CHECK_FUNCTIONS[check](graph))
    return mask, failures


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    n = args.max_n
    if n > 7:
        raise ValueError("sweeps above 7 vertices are not supported")
    if n < 1:
        raise ValueError("sweeps need at least one vertex")
    checks = tuple(dict.fromkeys(args.checks.split(",")))
    for check in checks:
        if check not in GRAPH_CHECKS + POSET_CHECKS:
            raise ValueError(
                f"unknown check {check!r}; choose from "
                f"{', '.join(GRAPH_CHECKS + POSET_CHECKS)}"
            )

    graph_checks = tuple(c for c in checks if c in GRAPH_CHECKS)
    poset_checks = tuple(c for c in checks if c in POSET_CHECKS)
    failures: list[dict] = []
    cases = 0
    aborted = False

    if graph_checks:
        masks = range(1 << (n * (n - 1) // 2))
        tasks = ((n, mask, graph_checks) for mask in masks)
        if args.jobs > 1:
            from multiprocessing import Pool  # only parallel sweeps pay for the import

            with Pool(args.jobs) as pool:
                for _, fails in pool.imap(_sweep_graph_worker, tasks, chunksize=64):
                    cases += 1
                    if fails:
                        failures.extend(fails)
                        if not args.keep_going:
                            aborted = True
                            pool.terminate()
                            break
        else:
            for task in tasks:
                _, fails = _sweep_graph_worker(task)
                cases += 1
                if fails:
                    failures.extend(fails)
                    if not args.keep_going:
                        aborted = True
                        break

    if poset_checks and not aborted:
        for poset in all_posets(n):
            cases += 1
            fails = _check_ptableaux(poset)
            if fails:
                failures.extend(fails)
                if not args.keep_going:
                    aborted = True
                    break

    status = "ok" if not failures else "mismatch"
    report = RunReport(
        command="sweep",
        inputs={"n": n, "checks": list(checks)},
        outputs={
            "cases": cases,
            "failures": failures,
            "aborted_early": aborted,
        },
        status=status,
        timing=time.perf_counter() - started,
    )
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        lines = [f"# sweep  n={n}  checks={','.join(checks)}"]
        lines.append(f"cases run: {cases}")
        if failures:
            lines.append(f"failures: {len(failures)}")
            for f in failures[:10]:
                lines.append(f"  {json.dumps(f, sort_keys=True)}")
        else:
            lines.append("failures: 0")
        lines.append(f"status: {status}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if not failures else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromsym",
        description="Exact chromatic symmetric function computations on small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="expand the chromatic symmetric function")
    expand.add_argument("graph", help="graph file (JSON or edge list)")
    expand.add_argument("--basis", choices=("m", "e", "s"), default="m")
    expand.add_argument("--max-n", type=int, default=10, help="vertex-count limit")
    expand.add_argument("--json", action="store_true")
    expand.set_defaults(func=cmd_expand)

    cqf = sub.add_parser(
        "cqf", help="quasisymmetric refinement via both routes, with their diff"
    )
    cqf.add_argument("graph", help="graph file (JSON or edge list)")
    cqf.add_argument("--labeling", help="comma-separated labels, or 'identity'")
    cqf.add_argument(
        "--t-eval",
        type=int,
        choices=(1,),
        default=None,
        help="additionally collapse at t=1 and flag symmetry",
    )
    cqf.add_argument("--max-n", type=int, default=10)
    cqf.add_argument("--json", action="store_true")
    cqf.add_argument("-v", "--verbose", action="store_true")
    cqf.set_defaults(func=cmd_cqf)

    verify = sub.add_parser("verify", help="run a named two-route comparison")
    verify.add_argument("input", help="graph file, or poset file for ptableaux")
    verify.add_argument("check", choices=GRAPH_CHECKS + POSET_CHECKS)
    verify.add_argument("--labeling", help="labels for hook-t, or 'identity'")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="run checks over every graph of a given size")
    sweep.add_argument("--max-n", type=int, required=True, help="vertex count to sweep")
    sweep.add_argument(
        "--checks",
        default="hook-1",
        help="comma-separated subset of "
        + ",".join(GRAPH_CHECKS + POSET_CHECKS),
    )
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--keep-going", action="store_true")
    sweep.add_argument("--json", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
