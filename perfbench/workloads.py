"""Seeded inputs and CLI call lists for the three benchmark workloads.

Every input comes from the benchmark's own ``random.Random(seed)``; nothing
here imports chromsym.  A workload is a list of calls; each call names its
argv, the input files it reads, and the facts an independent check needs
(graph family, labeling, basis).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1
WORKLOADS = ("expand-sparse", "qsym-dense", "sweep-small")

SWEEP_GRAPH_CHECKS = "hook-1,hook-t,e-sink,chrompoly"


@dataclass(frozen=True)
class GraphSpec:
    """A generated graph on vertices 1..n, as chromsym will number them."""

    n: int
    edges: tuple[tuple[int, int], ...]
    family: str  # "tree", "cycle" or "dense"
    labels: tuple[int, ...] | None = None


@dataclass
class Call:
    """One CLI call: ``chromsym <argv>`` run in a fresh process."""

    call_id: str
    argv: list[str]
    graph: GraphSpec | None = None
    # Sweep outputs do not depend on the seed, so their reference bytes
    # are checked for every seed; all other references only for the
    # default seed.
    seed_independent: bool = False


@dataclass
class Workload:
    calls: list[Call]
    files: dict[str, bytes] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graph generators


def prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on 1..n, decoded from a Prüfer code."""
    code = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = next(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(1, n + 1) if degree[x] == 1)
    edges.append((u, w))
    return edges


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(1, n)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def dense_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return rng.sample(complete_edges(n), m)


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    """The same graph with its vertices renumbered by a random permutation."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [(perm[u - 1], perm[v - 1]) for u, v in edges]


def labeling(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random labeling of 1..n that is not the identity."""
    identity = list(range(1, n + 1))
    labels = identity[:]
    while labels == identity:
        rng.shuffle(labels)
    return tuple(labels)


def canonical(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def json_file(n: int, edges, labels=None) -> bytes:
    data: dict = {"n": n, "edges": [list(e) for e in edges]}
    if labels is not None:
        data["labels"] = list(labels)
    return (json.dumps(data) + "\n").encode()


def edge_list_file(rng: random.Random, edges) -> bytes:
    """Plain 'u v' lines in random order and direction.  Names are the
    vertex numbers, so chromsym numbers the vertices the same way."""
    lines = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    rng.shuffle(lines)
    return "".join(f"{u} {v}\n" for u, v in lines).encode()


# ---------------------------------------------------------------------------
# workloads


def _expand_sparse(rng: random.Random) -> Workload:
    w = Workload([])

    def add_graph(fname, n, edges, family, as_json):
        edges = relabel(rng, n, edges)
        w.files[fname] = json_file(n, edges) if as_json else edge_list_file(rng, edges)
        return GraphSpec(n, canonical(edges), family)

    path12 = add_graph("path12.txt", 12, path_edges(12), "tree", False)
    tree11 = add_graph("tree11.json", 11, prufer_tree(rng, 11), "tree", True)
    cycle10 = add_graph("cycle10.txt", 10, cycle_edges(10), "cycle", False)
    tree10 = add_graph("tree10.json", 10, prufer_tree(rng, 10), "tree", True)
    tree9 = add_graph("tree9.txt", 9, prufer_tree(rng, 9), "tree", False)
    cycle9 = add_graph("cycle9.json", 9, cycle_edges(9), "cycle", True)

    def expand(call_id, fname, spec, basis, *extra):
        argv = ["expand", fname, "--basis", basis, "--max-n", str(spec.n), *extra]
        w.calls.append(Call(call_id, argv, spec))

    expand("path12-s", "path12.txt", path12, "s")
    expand("path12-m", "path12.txt", path12, "m")
    expand("tree11-s", "tree11.json", tree11, "s")
    expand("cycle10-e", "cycle10.txt", cycle10, "e", "--json")
    expand("tree10-m", "tree10.json", tree10, "m")
    expand("tree10-s", "tree10.json", tree10, "s")
    expand("tree9-e", "tree9.txt", tree9, "e")
    # Cheap calls, mostly start-up and import: more than half of all
    # calls, so call_s.p50 is the cost of a small call.
    expand("tree9-m", "tree9.txt", tree9, "m")
    expand("tree9-s", "tree9.txt", tree9, "s")
    expand("cycle10-m", "cycle10.txt", cycle10, "m")
    expand("cycle9-m", "cycle9.json", cycle9, "m")
    expand("cycle9-s", "cycle9.json", cycle9, "s", "--json")
    return w


def _qsym_dense(rng: random.Random) -> Workload:
    w = Workload([])

    def add_graph(fname, n, m, with_labels):
        edges = dense_edges(rng, n, m)
        labels = labeling(rng, n)
        w.files[fname] = json_file(n, edges, labels if with_labels else None)
        return GraphSpec(n, canonical(edges), "dense", labels)

    g8 = add_graph("dense8-18.json", 8, 18, False)
    g7a = add_graph("dense7-16.json", 7, 16, False)
    g7b = add_graph("dense7-14.json", 7, 14, True)
    g7c = add_graph("dense7-18.json", 7, 18, False)
    g7d = add_graph("dense7-15.json", 7, 15, True)
    k7 = add_graph("k7.json", 7, 21, False)

    def lab_arg(spec):
        return ",".join(str(x) for x in spec.labels)

    def call(call_id, spec, argv):
        # A cqf call uses the file's labels or --labeling, which are
        # always spec.labels; verify's checks ignore labelings.
        w.calls.append(Call(call_id, argv, spec))

    call("dense7d-cqf-t1", g7d, ["cqf", "dense7-15.json", "--t-eval", "1"])
    call("dense7b-cqf-verbose", g7b, ["cqf", "dense7-14.json", "--verbose"])
    call("dense7a-cqf-t1-json", g7a, ["cqf", "dense7-16.json", "--labeling", lab_arg(g7a), "--t-eval", "1", "--json"])
    call("dense8-e-sink", g8, ["verify", "dense8-18.json", "e-sink"])
    call("dense7c-hook-t", g7c, ["verify", "dense7-18.json", "hook-t", "--labeling", lab_arg(g7c)])
    call("dense7a-hook-1", g7a, ["verify", "dense7-16.json", "hook-1"])
    call("dense7b-chrompoly", g7b, ["verify", "dense7-14.json", "chrompoly"])
    call("k7-chrompoly", k7, ["verify", "k7.json", "chrompoly", "--json"])
    # Cheap calls, as in expand-sparse, so call_s.p50 is a small call.
    call("dense7c-chrompoly", g7c, ["verify", "dense7-18.json", "chrompoly"])
    call("dense7b-hook-1", g7b, ["verify", "dense7-14.json", "hook-1", "--json"])
    call("dense7d-e-sink", g7d, ["verify", "dense7-15.json", "e-sink"])
    call("dense7d-chrompoly", g7d, ["verify", "dense7-15.json", "chrompoly"])
    call("dense7a-chrompoly", g7a, ["verify", "dense7-16.json", "chrompoly", "--json"])
    call("dense7b-e-sink", g7b, ["verify", "dense7-14.json", "e-sink"])
    return w


def _sweep_small(rng: random.Random) -> Workload:
    # The sweep enumerates every graph and poset, so the seed has nothing
    # to choose here.
    del rng
    return Workload(
        [
            Call(
                "sweep5-graphs",
                ["sweep", "--max-n", "5", "--checks", SWEEP_GRAPH_CHECKS, "--jobs", "2"],
                seed_independent=True,
            ),
            Call(
                "sweep5-ptableaux",
                ["sweep", "--max-n", "5", "--checks", "ptableaux"],
                seed_independent=True,
            ),
        ],
    )


_GENERATORS = {
    "expand-sparse": _expand_sparse,
    "qsym-dense": _qsym_dense,
    "sweep-small": _sweep_small,
}


def build(name: str, seed: int) -> Workload:
    """The workload's calls and input files for one seed."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"))


def write_inputs(workload: Workload, directory) -> None:
    for fname, data in workload.files.items():
        (directory / fname).write_bytes(data)


def sequential_argv(argv: list[str]) -> list[str]:
    """The same call with any ``--jobs N`` replaced by ``--jobs 1``."""
    out = list(argv)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = "1"
    return out
