"""Command-line interface: expansions, quasisymmetric reports, two-route
identity checks, and exhaustive small-graph sweeps.

Exit codes: 0 all checks pass, 1 a mathematical comparison failed,
2 input or usage error, or an input too large to finish in memory or
within the recursion limit.
Output is deterministic: identical inputs and flags produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, NamedTuple

from . import chromatic, posets
from .chromatic import (
    cqf_fundamental_via_orientations,
    cqf_monomial,
    csf_monomial,
    csf_schur,  # noqa: F401  (perfbench/shim.py wraps this binding)
    dual_linear_extensions,
    sink_minimal_increasing_labeling,
)
from .graphs import _STORED_N, Graph, Labeling, _acyclic_orientation, acyclic_orientation_masks, descents, load_graph
from .posets import Poset, all_posets, load_poset
from .symfunc import _terms_json, canonical_items, collapse_t, is_symmetric, m_to_e, m_to_s, qsym_M_to_F
from .tpoly import TPoly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_INPUT


def _key_str(key) -> str:
    return "(" + ",".join(str(p) for p in key) + ")"


def _emit_table(lines: list[str], items) -> None:
    rows = [(_key_str(key), str(c)) for key, c in items]
    width = max((len(k) for k, _ in rows), default=0)
    for k, c in rows:
        lines.append(f"  {k.ljust(width)}  {c}")


def _finish(args, command: str, inputs: dict, outputs: dict, status: str, lines: Iterable[str], streamed=None) -> int:
    """Write the run to stdout, as JSON with --json and as lines otherwise,
    and return the exit code of its status.  The lines are read only
    without --json.  With it, streamed, when given, is a pair (field of
    outputs, its records): the array is written one record at a time."""
    if args.json:
        payload = {"command": command, "inputs": inputs, "outputs": outputs, "status": status}
        pieces = _json_pieces(payload, streamed)
    else:
        pieces = (line + "\n" for line in lines)
    sys.stdout.writelines(pieces)
    return EXIT_OK if status == "ok" else EXIT_MISMATCH


_HOLE = "\0"  # stands in for a streamed array while the rest of the payload is dumped


def _json_pieces(payload: dict, streamed):
    """The text of json.dumps(payload, indent=2, sort_keys=True) plus a
    newline, with the streamed field of payload["outputs"] filled from its
    records as they come.  The stand-in is found as its last occurrence:
    an input such as a vertex name may hold a NUL, but the outputs after
    the field and the status are numbers, flags and fixed words."""
    if streamed is None:
        yield json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return
    field, records = streamed
    payload["outputs"][field] = _HOLE
    head, _, tail = json.dumps(payload, indent=2, sort_keys=True).rpartition(json.dumps(_HOLE))
    yield head
    sep = "[\n      "  # the array sits at depth 2, its records at depth 3
    for record in records:
        yield sep + json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n      ")
        sep = ",\n      "
    yield ("[]" if sep[0] == "[" else "\n    ]") + tail + "\n"


def _graph_inputs(graph: Graph, zeta: Labeling | None = None, names=None) -> dict:
    inputs: dict = {"n": graph.n, "edges": [list(e) for e in graph.edges]}
    if zeta is not None:
        inputs["labeling"] = list(zeta.labels)
    if names is not None:
        inputs["vertex_names"] = list(names)
    return inputs


def _resolve_labeling(args, loaded: Labeling | None, n: int) -> Labeling:
    if getattr(args, "labeling", None) is not None:
        if args.labeling == "identity":
            return Labeling.identity(n)
        parts = [p.strip() for p in args.labeling.split(",")]  # an empty part is an error, not skipped
        for part in parts:
            if not (part.isascii() and part.isdigit()):
                raise ValueError(f"--labeling: {part!r} is not a positive integer; give the labels 1..{n}")
        if len(parts) != n:
            raise ValueError(f"--labeling gives {len(parts)} labels for a graph with {n} vertices")
        labels = [int(part) for part in parts]
        seen: set[int] = set()
        for part, label in zip(parts, labels):
            if not 1 <= label <= n:
                raise ValueError(f"--labeling: {part} is outside 1..{n}")
            if label in seen:
                raise ValueError(f"--labeling: {part} appears twice in a permutation of 1..{n}")
            seen.add(label)
        return Labeling(labels)
    if loaded is not None:
        return loaded
    return Labeling.identity(n)


# ---------------------------------------------------------------------------
# expand


def _load_bounded_graph(args):
    if args.max_n < 0:
        raise ValueError(f"--max-n must be at least 0, got {args.max_n}")
    loaded = load_graph(args.graph)
    n = loaded.graph.n
    if n > args.max_n:
        raise ValueError(
            f"graph has {n} {'vertex' if n == 1 else 'vertices'}, above the limit {args.max_n}; "
            "raise it with --max-n"
        )
    return loaded


def cmd_expand(args) -> int:
    loaded = _load_bounded_graph(args)
    graph = loaded.graph
    f = csf_monomial(graph)
    if args.basis == "m":
        terms = canonical_items(f)
    else:
        coeffs = (m_to_s if args.basis == "s" else m_to_e)(f)
        terms = [(lam, coeffs[lam]) for lam in sorted(coeffs, reverse=True)]
    lines = [f"# expand  basis={args.basis}  n={graph.n}  edges={len(graph.edges)}"]
    _emit_table(lines, terms)
    outputs = {"basis": args.basis, "terms": _terms_json(terms)}
    return _finish(args, "expand", _graph_inputs(graph, names=loaded.names), outputs, "ok", lines)


# ---------------------------------------------------------------------------
# cqf


def cmd_cqf(args) -> int:
    loaded = _load_bounded_graph(args)
    graph = loaded.graph
    zeta = _resolve_labeling(args, loaded.labeling, graph.n)
    monomial = cqf_monomial(graph, zeta)
    via_colorings = qsym_M_to_F(monomial)
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
        collapsed = collapse_t(monomial)
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

    listing: Iterable[str] = ()
    streamed = None
    if args.verbose:
        records = _orientation_records(graph, zeta)
        if args.json:
            streamed = (
                "orientations",
                (
                    {"arcs": [list(a) for a in arcs], "des": des, "snk": snk, "omega": list(omega), "extensions": words}
                    for arcs, des, snk, omega, words in records
                ),
            )
        else:  # one line at a time, as _finish writes them
            listing = chain(
                ["orientations:"],
                (
                    f"  arcs: {' '.join(f'{u}->{v}' for u, v in arcs) or '(none)'}  des={des}  snk={snk}  "
                    f"omega={','.join(str(x) for x in omega)}  extensions: {' '.join(words)}"
                    for arcs, des, snk, omega, words in records
                ),
            )
    lines = chain(lines, listing, [f"status: {status}"])
    return _finish(args, "cqf", _graph_inputs(graph, zeta, loaded.names), outputs, status, lines, streamed)


def _orientation_records(graph: Graph, zeta: Labeling):
    """(arcs, descents, sinks, canonical labels, extension words) for each
    acyclic orientation in turn, as ``cqf --verbose`` lists them; each
    orientation is built as the stream reaches it and dropped after."""
    for mask, out in acyclic_orientation_masks(graph):
        o = _acyclic_orientation(graph, mask, out)
        omega = sink_minimal_increasing_labeling(o)
        words = ["".join(str(x) for x in w) for w in dual_linear_extensions(o, omega)]
        yield o.arcs, descents(o, zeta), o.sinks(), omega.labels, words


# ---------------------------------------------------------------------------
# checks: verify renders their rows, sweep keeps the failing ones


class Check(NamedTuple):
    """A two-route identity: ``readers`` maps each value's name to a reader
    of (target, zeta), which gives the value at every k from ``first_k`` to
    n and looks its function up in that function's module at each call.  A
    row fails unless its values are all equal; verify shows the first two."""

    readers: dict[str, Callable]
    on_posets: bool = False
    first_k: int = 1

    def rows(self, target, zeta) -> list[tuple]:
        """One ``(k, *values)`` row per k."""
        return self.rows_of(target, [read(target, zeta) for read in self.readers.values()])

    def rows_of(self, target, values: list) -> list[tuple]:
        """The rows of values, one read by each reader in turn; a value
        with an entry too many or too few is a ValueError."""
        return list(zip(range(self.first_k, target.n + 1), *values, strict=True))


CHECKS = {
    "hook-t": Check({
        "f_expansion": lambda graph, zeta: chromatic.hook_coefficients_via_extensions_t(graph, zeta),
        "orientation_sum": lambda graph, zeta: chromatic.hook_coefficients_via_orientations_t(graph, zeta),
        "coloring_route": lambda graph, zeta: chromatic.hook_coefficients_via_colorings_t(graph, zeta),
    }),
    "hook-1": Check({
        "schur": lambda graph, _: chromatic.hook_coefficients_via_schur(graph),
        "sinks": lambda graph, _: chromatic.hook_coefficients_via_sinks(graph),
        "kostka": lambda graph, _: chromatic.hook_coefficients_via_kostka(graph),
    }),
    "e-sink": Check({
        "orientations": lambda graph, _: chromatic.orientations_by_sinks(graph),
        "e_sum": lambda graph, _: chromatic.e_sums_by_length(graph),
    }),
    "chrompoly": Check({
        "specialized": lambda graph, _: chromatic.chromatic_polynomial_via_specialization(graph),
        "enumerated": lambda graph, _: chromatic.chromatic_polynomial_via_colorings(graph),
    }, first_k=0),
    "ptableaux": Check({
        "tableaux": lambda poset, _: posets.count_p_tableaux_hooks(poset),
        "schur": lambda poset, _: posets.incomparability_schur_hooks(poset),
    }, on_posets=True),
}


# A vertex set is an int with one bit per vertex, and the kernels index
# tables by vertex sets: past this many vertices a set no longer fits an
# index, so a larger graph is refused before any labeling is built.
_MAX_VERTICES = sys.maxsize.bit_length()


def _row_fails(values) -> bool:
    return values.count(values[0]) != len(values)  # one C-level pass, for the values of a row or whole values


def _failures(check: Check, target, rows) -> list[dict]:
    """The failure record of every failing row."""
    failing = [row for row in rows if _row_fails(row[1:])]
    if not failing:
        return []
    if check.on_posets:
        subject: dict = {"poset": repr(target)}
    else:
        subject = {"edges": [list(e) for e in target.edges]}
    return [
        {**subject, "k": k, **{name: _plain(v) for name, v in zip(check.readers, values)}}
        for k, *values in failing
    ]


def _plain(value):
    return list(value.coeffs) if isinstance(value, TPoly) else value


def cmd_verify(args) -> int:
    check = CHECKS[args.check]
    if check.on_posets:
        if args.labeling is not None:
            raise ValueError(f"--labeling does not apply to the {args.check} check, which reads a poset")
        target = load_poset(args.input)
        inputs = {"poset": repr(target)}
        zeta = None
    else:
        loaded = load_graph(args.input)
        target = loaded.graph
        if target.n > _MAX_VERTICES:
            raise ValueError(f"graph has {target.n} vertices, above the limit {_MAX_VERTICES} of the graph checks")
        inputs = _graph_inputs(target, names=loaded.names)
        zeta = _resolve_labeling(args, loaded.labeling, target.n)
    rows = check.rows(target, zeta)
    failures = _failures(check, target, rows)
    status = "ok" if not failures else "mismatch"
    table = [[k, *(str(v) if isinstance(v, TPoly) else v for v in values[:2])] for k, *values in rows]
    lines = [f"# verify  check={args.check}", "  k  lhs  rhs"]
    for (k, lhs, rhs), (_, *values) in zip(table, rows):
        mark = "  <- MISMATCH" if _row_fails(values) else ""
        lines.append(f"  {k}  {lhs}  {rhs}{mark}")
    lines.append(f"status: {status}")
    outputs = {"check": args.check, "table": table, "failures": failures}
    return _finish(args, "verify", inputs, outputs, status, lines)


# ---------------------------------------------------------------------------
# sweep


def _case_failures(target, checks) -> list[dict]:
    """The failure records of one case.  A check's rows all match exactly
    when its values are equal and each has its n + 1 - first_k entries, so
    one comparison of whole values passes it; rows are built only for a
    check that does not pass."""
    failures = []
    for name in checks:
        check = CHECKS[name]
        values = [read(target, None) for read in check.readers.values()]
        if len(values[0]) != target.n + 1 - check.first_k or _row_fails(values):
            failures += _failures(check, target, check.rows_of(target, values))
    return failures


def _sweep_worker(task) -> list[dict]:
    """The failure records of one case: (n, edge mask, checks) names a
    graph, (n, above-masks, checks) a poset."""
    n, case, checks = task
    if isinstance(case, tuple):
        return _case_failures(Poset._trusted(n, case), checks)
    pairs = _vertex_pairs(n)
    return _case_failures(Graph._trusted(n, tuple(pair for i, pair in enumerate(pairs) if case >> i & 1)), checks)


@lru_cache(maxsize=8)
def _vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(1, n + 1), 2))  # ascending: any selection is canonical


def _sweep_results(n: int, checks: tuple[str, ...], jobs: int):
    """The failure records of each case in turn: every graph on n
    vertices, then every poset on n elements.  Both go to at most
    min(jobs, CPUs) worker processes, each with its own kernel stores."""
    graph_checks = tuple(c for c in checks if not CHECKS[c].on_posets)
    poset_checks = tuple(c for c in checks if CHECKS[c].on_posets)
    graphs = range(1 << (n * (n - 1) // 2)) if graph_checks else ()
    posets = all_posets(n) if poset_checks else ()
    tasks = chain(
        ((n, mask, graph_checks) for mask in graphs),
        ((n, poset.above, poset_checks) for poset in posets),
    )
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool  # only parallel sweeps pay for the import

        with Pool(workers) as pool:
            yield from pool.imap(_sweep_worker, tasks, chunksize=64)
    else:
        yield from map(_sweep_worker, tasks)


def cmd_sweep(args) -> int:
    n = args.max_n
    if n > _STORED_N:  # the kernels' stores are sized for these sweeps
        raise ValueError(f"sweeps above {_STORED_N} vertices are not supported")
    if n < 1:
        raise ValueError("sweeps need at least one vertex")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    checks = tuple(dict.fromkeys(args.checks.split(",")))
    for check in checks:
        if check not in CHECKS:
            raise ValueError(f"unknown check {check!r}; choose from {', '.join(CHECKS)}")

    failures: list[dict] = []
    cases = 0
    aborted = False
    # Closing the stream on an early stop leaves the pool's with-block,
    # which terminates the workers.
    with closing(_sweep_results(n, checks, args.jobs)) as results:
        for fails in results:
            cases += 1
            failures.extend(fails)
            if fails and not args.keep_going:
                aborted = True
                break

    status = "ok" if not failures else "mismatch"
    lines = [f"# sweep  n={n}  checks={','.join(checks)}", f"cases run: {cases}"]
    lines.append(f"failures: {len(failures)}")
    lines.extend(f"  {json.dumps(f, sort_keys=True)}" for f in failures[:10])
    lines.append(f"status: {status}")
    outputs = {"cases": cases, "failures": failures, "aborted_early": aborted}
    return _finish(args, "sweep", {"n": n, "checks": list(checks)}, outputs, status, lines)


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
    verify.add_argument("check", choices=tuple(CHECKS))
    verify.add_argument("--labeling", help="labels for hook-t, or 'identity'")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="run checks over every graph of a given size")
    sweep.add_argument("--max-n", type=int, required=True, help="vertex count to sweep")
    sweep.add_argument(
        "--checks",
        default="hook-1",
        help="comma-separated subset of " + ",".join(CHECKS),
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
    except (MemoryError, OverflowError, RecursionError) as exc:  # a 2^n table or an n-deep recursion
        task = f"the {args.check} check" if args.command == "verify" else args.command
        cause = "recursion too deep" if isinstance(exc, RecursionError) else "out of memory"
        return _fail(f"{cause}: the input is too large for {task}")


if __name__ == "__main__":
    sys.exit(main())
