"""Finite simple graphs on vertex set {1..n}, with labelings, stable
partitions, and acyclic orientations.

Vertices are always 1..n.  Edges are stored canonically as sorted pairs
with no loops or duplicates.  Acyclic orientations come from one
backtracking kernel, ``acyclic_orientation_masks``, whose cost grows with
the number of acyclic orientations rather than with the 2^|E| direction
vectors.  Stable partitions are counted by type with a subset DP over
vertex sets, so their cost follows the 2^n subsets and the number of
types rather than the number of partitions.  A relation held as bitmasks
is reversed by ``_transpose`` and closed by ``_closure``, the one kernel
for each that orientations and posets share; ``_relation_bits`` holds it
as one integer that one AND restricts to a set, with a mask from the
cached table ``_subset_pair_masks``, and ``_graph_of`` turns a symmetric
one back into a graph.  ``_shared_states`` gives every subset DP of the
package (the stable-partition DP here, the coloring pass and the sink kernel
in ``chromatic``, the hook tableau walk in ``posets``) its store and those
keys on structures of sweep size, and a memo of its own otherwise, so no
other module computes with the bit layout or decides when a store is
cleared.
"""

from __future__ import annotations

import json
import operator
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .partitions import _decode_type


class Graph:
    """A simple graph with vertices 1..n and a canonical edge tuple."""

    __slots__ = ("n", "edges", "_hash", "_adj")

    def __init__(self, n: int, edges=()):
        n = _as_int(n, "vertex count")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        normalized = []
        for e in edges:
            u, v = _as_int_pair(e, "edge", "edge endpoint")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            normalized.append((u, v))
        self.n = n
        self.edges = tuple(sorted(normalized))
        self._hash = hash((n, self.edges))
        self._adj = None

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """A graph from a canonical edge tuple, sorted pairs (u, v) with
        1 <= u < v <= n in ascending order, as built; nothing is checked."""
        g = object.__new__(cls)
        g.n, g.edges, g._hash, g._adj = n, edges, hash((n, edges)), None
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def key(self) -> tuple:
        return (self.n, self.edges)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Bitmask of neighbours per vertex, 0-indexed bits; built once."""
        if self._adj is None:
            adj = [0] * self.n
            for u, v in self.edges:
                adj[u - 1] |= 1 << (v - 1)
                adj[v - 1] |= 1 << (u - 1)
            self._adj = tuple(adj)
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        mask = self.adjacency_masks()[v - 1]
        return tuple(u + 1 for u in range(self.n) if mask >> u & 1)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.key() == other.key()

    def __hash__(self):  # computed once: every cached kernel hashes the graph
        return self._hash

    def __repr__(self):
        return f"Graph({self.n}, {list(self.edges)!r})"


def edgeless_graph(n: int) -> Graph:
    return Graph(n, ())


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def star_graph(leaves: int) -> Graph:
    """The star K_{1,leaves} with centre 1."""
    return Graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


class Labeling:
    """A bijective labeling of the vertices: label(v) for v in 1..n."""

    __slots__ = ("labels",)

    def __init__(self, labels):
        word = tuple(_as_int(x, "label") for x in labels)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"labeling must be a permutation of 1..{len(word)}: {word}")
        self.labels = word

    @classmethod
    def identity(cls, n: int) -> "Labeling":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.labels)

    def label(self, v: int) -> int:
        return self.labels[v - 1]

    def __eq__(self, other):
        return isinstance(other, Labeling) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Labeling({list(self.labels)!r})"


class Orientation:
    """A direction for every edge of a graph, as (tail, head) pairs
    aligned with the graph's canonical edge order.  Bit e of ``mask`` is
    set when edge e keeps its canonical (low -> high) direction."""

    __slots__ = ("graph", "arcs", "mask", "_acyclic", "_out")

    def __init__(self, graph: Graph, arcs):
        edge_set = set(graph.edges)
        by_edge: dict[tuple[int, int], tuple[int, int]] = {}
        for a in arcs:
            tail, head = int(a[0]), int(a[1])
            edge = (tail, head) if tail < head else (head, tail)
            if edge not in edge_set:
                raise ValueError(f"arc ({tail},{head}) does not orient an edge of the graph")
            if edge in by_edge:
                raise ValueError(f"edge ({edge[0]},{edge[1]}) is oriented twice")
            by_edge[edge] = (tail, head)
        if len(by_edge) != graph.m:
            raise ValueError("one direction per edge is required")
        self.graph = graph
        self.arcs = tuple(by_edge[e] for e in graph.edges)
        self.mask = sum(1 << e for e, (u, v) in enumerate(self.arcs) if u < v)
        self._acyclic = self._out = None

    @classmethod
    def from_mask(cls, graph: Graph, mask: int) -> "Orientation":
        """Bit e set means edge e keeps its canonical (low -> high) direction.

        A mask names one direction per edge, so nothing is checked."""
        o = object.__new__(cls)
        o.graph, o.mask, o._acyclic, o._out = graph, mask & (1 << graph.m) - 1, None, None
        o.arcs = tuple(edge if mask >> e & 1 else edge[::-1] for e, edge in enumerate(graph.edges))
        return o

    def out_masks(self) -> tuple[int, ...]:
        """Heads of the arcs leaving each vertex, as 0-indexed bits."""
        if self._out is None:
            out = [0] * self.graph.n
            for u, v in self.arcs:
                out[u - 1] |= 1 << (v - 1)
            self._out = tuple(out)
        return self._out

    def is_acyclic(self) -> bool:
        if self._acyclic is None:
            self._acyclic = _closure(self.out_masks()) is not None
        return self._acyclic

    def sinks(self) -> int:
        """Number of vertices with no outgoing arc (isolated ones count)."""
        return self.out_masks().count(0)

    def __eq__(self, other):
        return (
            isinstance(other, Orientation)
            and self.graph == other.graph
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.graph.key(), self.arcs))

    def __repr__(self):
        body = ", ".join(f"{u}->{v}" for u, v in self.arcs)
        return f"Orientation({body})"


def _transpose(masks) -> list[int]:
    """The reversed relation: bit i of entry j is set when bit j of
    masks[i] is."""
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= 1 << i
            mask ^= low
    return out


def _closure(masks) -> list[int] | None:
    """The transitive closure of the relation masks (bit j of masks[i]
    relates i to j), or None when it has a cycle.

    Each element is closed once all the elements it relates to are, so
    the elements are taken in a sinks-first (Kahn) order and every
    relation costs one OR."""
    n = len(masks)
    into = _transpose(masks)
    waiting = [mask.bit_count() for mask in masks]  # elements related to, not yet closed
    order = [i for i in range(n) if not waiting[i]]
    closed = list(masks)
    for i in order:  # order grows while it is read
        reach = rest = masks[i]
        while rest:
            low = rest & -rest
            reach |= closed[low.bit_length() - 1]
            rest ^= low
        closed[i] = reach
        rest = into[i]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            waiting[j] -= 1
            if not waiting[j]:
                order.append(j)
            rest ^= low
    return closed if len(order) == n else None


# The most vertices a structure may have for the stores that the sweep
# kernels share (``_PARTITION_STATES`` here, ``chromatic._STATES`` and
# ``chromatic._SINK_STATES``, ``posets._LEGS``) to hold its sub-structures
# under ``_relation_bits`` keys; larger ones keep their own.
_STORED_N = 7


def _relation_bits(masks) -> int:
    """The relation masks (bit b of masks[a] relates a to b) as one n²-bit
    integer: bit a·n + b is set when a relates to b, and every diagonal bit
    a·n + a is set as well.  One AND with ``_pair_mask(n, s)`` restricts it
    to the set s, and the diagonal bits left then name s itself, so equal
    results mean equal sets carrying equal relations."""
    n = len(masks)
    return sum((mask | 1 << a) << a * n for a, mask in enumerate(masks))


def _graph_of(n: int, bits: int) -> Graph:
    """The graph whose edges are the pairs a + 1 < b + 1 that bits, a
    relation as ``_relation_bits`` holds it, relates: the inverse of
    ``_relation_bits`` on symmetric relations."""
    edges = tuple((a + 1, b + 1) for a in range(n) for b in range(a + 1, n) if bits >> a * n + b & 1)
    return Graph._trusted(n, edges)  # pairs (a, b) with a < b, ascending


def _pair_mask(n: int, s: int) -> int:
    """The bits a·n + b of an n²-bit relation with a and b both in s."""
    out, rows = 0, s
    while rows:
        low = rows & -rows
        out |= s << (low.bit_length() - 1) * n
        rows ^= low
    return out


@lru_cache(maxsize=8)
def _subset_pair_masks(n: int) -> tuple[int, ...]:
    """Entry s is ``_pair_mask(n, s)`` with bit n² set, which tells the
    vertex counts apart in the keys of the stores."""
    return tuple(_pair_mask(n, s) | 1 << n * n for s in range(1 << n))


def _shared_states(store: dict, cap: int, masks) -> tuple[dict, int, Sequence[int]]:
    """(states, rel, sets) for a DP over the vertex sets s of the graph or
    relation whose masks are given: the state of s is states[rel & sets[s]].

    With 1 <= n <= ``_STORED_N`` vertices, states is the process-wide
    store, cleared first once it holds more than cap entries, and the key
    of s is ``_relation_bits(masks)`` with bit n² set, restricted to s: the
    induced sub-structure, which every other graph with the same one
    shares.  Otherwise states is a fresh memo keyed by the set alone.
    """
    n = len(masks)
    if not 0 < n <= _STORED_N:
        return {}, -1, range(1 << n)
    if len(store) > cap:
        store.clear()
    return store, _relation_bits(masks) | 1 << n * n, _subset_pair_masks(n)


def acyclic_orientation_masks(graph: Graph):
    """Stream ``(mask, out_masks)`` for every acyclic orientation, in
    ascending mask order.

    Bit e of ``mask`` set means edge e keeps its canonical (low -> high)
    direction, as in ``Orientation.from_mask``; ``out_masks[v]`` holds the
    heads of the arcs leaving vertex v + 1, as 0-indexed bits.

    The search fixes edges from the highest index down, the non-canonical
    direction first, and keeps for each vertex the mask of vertices it
    reaches.  Every partial acyclic orientation extends to a full one (orient
    the rest along a topological order), so no branch dead-ends and the work
    is O(|E| n) per orientation produced.
    """
    n = graph.n
    edges = graph.edges
    out = [0] * n
    reach = [1 << v for v in range(n)]  # reach[v]: v and every vertex it reaches

    def rec(e: int, mask: int):
        if e < 0:
            yield mask, tuple(out)
            return
        u, v = edges[e]
        for tail, head, bit in ((v - 1, u - 1, 0), (u - 1, v - 1, 1 << e)):
            if reach[head] >> tail & 1:
                continue  # head already reaches tail: the arc would close a cycle
            saved = reach[:]
            below = reach[head]
            for w in range(n):
                if reach[w] >> tail & 1:
                    reach[w] |= below
            out[tail] |= 1 << head
            yield from rec(e - 1, mask | bit)
            out[tail] &= ~(1 << head)
            reach[:] = saved

    try:
        yield from rec(len(edges) - 1, 0)
    finally:
        del rec  # rec refers to itself: break the cycle, also when the caller stops early


def _acyclic_orientation(graph: Graph, mask: int, out: tuple[int, ...]) -> Orientation:
    """The orientation of a pair (mask, out) that ``acyclic_orientation_masks``
    yields, known to be acyclic and to have out-masks out; nothing is checked."""
    o = Orientation.from_mask(graph, mask)
    o._acyclic, o._out = True, out
    return o


def acyclic_orientations(graph: Graph) -> tuple[Orientation, ...]:
    """All acyclic orientations in ascending mask order; the empty
    orientation for edgeless graphs."""
    return tuple(_acyclic_orientation(graph, mask, out) for mask, out in acyclic_orientation_masks(graph))


def descents(o: Orientation, zeta: Labeling) -> int:
    """Arcs (u, v) whose direction runs against the labeling: label(u) > label(v)."""
    if zeta.n != o.graph.n:
        raise ValueError("labeling and orientation live on different graphs")
    return sum(1 for u, v in o.arcs if zeta.label(u) > zeta.label(v))


# States of the vertex sets of graphs with at most _STORED_N vertices, keyed
# by the induced subgraph and shared by every such graph of the process;
# values are tuples of (type code, count) pairs.  Cleared on entry to
# stable_partitions_by_type once it holds more than _PARTITION_STATES_CAP.
_PARTITION_STATES: dict[int, tuple] = {}
_PARTITION_STATES_CAP = 1 << 13


def stable_partitions_by_type(graph: Graph) -> dict[tuple[int, ...], int]:
    """Unordered partitions of V into stable blocks, counted by sorted
    block-size type, in descending type order."""
    # g(S), the stable partitions of the vertex set S by type, is the sum over
    # stable T within S that hold the lowest vertex of S of g(S - T) with |T|
    # added to each type.  A type is coded as sum over its parts k of
    # (n + 1)^(k - 1), so adding a part is adding an integer.  Only the sets S
    # reached from V are visited; each costs one pass over the subsets of the
    # non-neighbours of its lowest vertex.  g(S) depends only on the subgraph
    # S induces, so the states of proper subsets are shared through
    # _shared_states, and the whole graph's state is met once, last.
    n = graph.n
    adj = graph.adjacency_masks()
    full = (1 << n) - 1
    stable = bytearray(full + 1)  # stable[T]: no edge inside T
    stable[0] = 1
    for t in range(1, full + 1):
        low = (t & -t).bit_length() - 1
        rest = t & (t - 1)
        stable[t] = stable[rest] and not adj[low] & rest
    base = n + 1
    store, rel, sets = _shared_states(_PARTITION_STATES, _PARTITION_STATES_CAP, adj)

    def g(s: int) -> dict[int, int]:
        if not s:
            return {0: 1}  # the empty partition
        lowbit = s & -s
        free = s & ~adj[lowbit.bit_length() - 1] & ~lowbit
        got: dict[int, int] = {}
        rest = free
        while True:  # every subset rest of free, free itself first
            t = rest | lowbit
            if stable[t]:
                part = base ** (t.bit_count() - 1)
                key = rel & sets[s ^ t]
                state = store.get(key)
                if state is None:
                    state = store[key] = tuple(g(s ^ t).items())
                for code, c in state:
                    got[code + part] = got.get(code + part, 0) + c
            if not rest:
                break
            rest = (rest - 1) & free
        return got

    types = g(full)
    del g  # g refers to itself and may hold the memo: break the cycle so the memo is freed at once
    return dict(sorted(((_decode_type(code, n), c) for code, c in types.items()), reverse=True))


def is_claw_free(graph: Graph) -> bool:
    """True iff no vertex has three pairwise non-adjacent neighbours."""
    adj = graph.adjacency_masks()
    for c in range(1, graph.n + 1):
        nbrs = graph.neighbors(c)
        for a, b, d in combinations(nbrs, 3):
            if (
                adj[a - 1] >> (b - 1) & 1 == 0
                and adj[a - 1] >> (d - 1) & 1 == 0
                and adj[b - 1] >> (d - 1) & 1 == 0
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# input formats


class GraphInput:
    """A parsed graph plus its optional labeling and vertex-name map."""

    __slots__ = ("graph", "labeling", "names")

    def __init__(self, graph: Graph, labeling=None, names=None):
        self.graph = graph
        self.labeling = labeling
        self.names = names


def parse_graph_text(text: str, source: str = "<input>") -> GraphInput:
    """Parse a graph file: JSON object or plain 'u v' edge lines."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_graph_json(text, source)
    return _parse_graph_edges(text, source)


def _load_json_object(text: str, source: str, fields: tuple[str, ...]) -> dict:
    """The JSON object in text, holding a nonnegative integer 'n' and no
    field outside fields."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{source}: invalid JSON: nested too deeply") from None
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError(f"{source}: expected an object with fields '{fields[0]}' and '{fields[1]}'")
    unknown = [key for key in data if key not in fields]
    if unknown:
        known = ", ".join(f"'{name}'" for name in fields)
        raise ValueError(f"{source}: unknown field {json.dumps(unknown[0])}; expected fields {known}")
    n = data["n"]
    if not _is_int(n) or n < 0:
        raise ValueError(f"{source}: 'n' must be a nonnegative integer, got {json.dumps(n)}")
    return data


def _parse_graph_json(text: str, source: str) -> GraphInput:
    data = _load_json_object(text, source, ("n", "edges", "labels"))
    n = data["n"]
    edges = _check_int_pairs(data.get("edges", []), "edges", source)
    try:
        graph = Graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    labeling = None
    if "labels" in data and data["labels"] is not None:
        labels = data["labels"]
        if not (isinstance(labels, list) and all(map(_is_int, labels))):
            raise ValueError(f"{source}: 'labels' must be a list of integers, got {json.dumps(labels)}")
        try:
            labeling = Labeling(labels)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
        if labeling.n != n:
            raise ValueError(f"{source}: labels must be a permutation of 1..{n}")
    return GraphInput(graph, labeling)


def _is_int(value) -> bool:
    """True for JSON integers; JSON true and false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int(value, what: str) -> int:
    """value as an int, if it is an integer: an int or any type that
    ``operator.index`` accepts, such as a NumPy integer, but not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _as_int_pair(item, what: str, part: str) -> tuple[int, int]:
    """item as a pair of ints, if it is a sequence of two integers, each
    read by ``_as_int`` as a part; a string is no pair."""
    if not isinstance(item, (str, bytes)):
        try:
            if len(item) == 2:
                return _as_int(item[0], part), _as_int(item[1], part)
        except (TypeError, LookupError):  # no length, or no items 0 and 1
            pass
    raise ValueError(f"{what} must be a pair of integers, got {item!r}")


def _check_int_pairs(pairs, field: str, source: str) -> list:
    """pairs itself, if it is a JSON list of pairs of integers."""
    if not isinstance(pairs, list):
        raise ValueError(f"{source}: '{field}' must be a list of pairs")
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            raise ValueError(f"{source}: '{field}'[{i}] must be a pair of integers, got {json.dumps(pair)}")
    return pairs


def _parse_graph_edges(text: str, source: str) -> GraphInput:
    raw_edges = []
    names = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != 2:
            raise ValueError(f"{source}:{lineno}: expected two vertex names, got {tokens}")
        u, v = tokens
        if u == v:
            raise ValueError(f"{source}:{lineno}: loop at vertex {u!r} is not allowed")
        raw_edges.append((lineno, u, v))
        names.update((u, v))
    if all(_is_numeral(name) for name in names):
        # Names such as 1 and 01 have equal values; the name breaks the tie,
        # so the numbering never follows set order.
        ordered = sorted(names, key=lambda name: (int(name), name))
    else:
        ordered = sorted(names)
    index = {name: i + 1 for i, name in enumerate(ordered)}
    seen = set()
    edges = []
    for lineno, u, v in raw_edges:
        a, b = index[u], index[v]
        if a > b:
            a, b = b, a
        if (a, b) in seen:
            raise ValueError(f"{source}:{lineno}: duplicate edge {u} {v}")
        seen.add((a, b))
        edges.append((a, b))
    return GraphInput(Graph(len(ordered), edges), None, tuple(ordered))


def _is_numeral(name: str) -> bool:
    """True for names such as 7, -3 and 007 that int() reads as written."""
    digits = name[1:] if name.startswith("-") else name
    return digits.isascii() and digits.isdigit()


def _read_input(path) -> str:
    """The text of an input file; bytes that are not UTF-8 are an error
    naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not text
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_graph(path) -> GraphInput:
    return parse_graph_text(_read_input(path), source=str(path))
