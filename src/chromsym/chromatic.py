"""Chromatic symmetric and quasisymmetric functions of labeled graphs.

The same quantities are reachable along two independent routes:

* colorings: monomial coordinates from stable partitions and the Schur
  coefficients from an exact basis change, each computed once per graph;
  the quasisymmetric refinement and the chromatic polynomial's
  enumeration side come from ``_coloring_counts``, one ascending pass
  over the vertex sets that adds one stable color class at a time and
  counts colorings per distinct (composition, ascents) pair, never one
  coloring at a time, each pair packed into one int key; on graphs of
  sweep size its states are stored per induced subgraph and shared;
* orientations: acyclic orientations weighted by sinks and descents,
  assembled into fundamental coordinates through linear extensions.  One
  sink kernel, ``_sink_polys``, counts the orientations by (sinks,
  descents) with a 3^n subset sum over the induced subgraphs, without
  listing one, each count of one sink number packed into one int;
  ``sink_profile`` takes the sink histogram at t = 1 off those ints by a
  Taylor shift and one remainder per sink number, and on graphs of sweep
  size the kernel's counts go to a store of their own.  One
  recursion over vertex orders, in ``_order_counts``, meets every
  (orientation, linear extension) pair once and tallies it in place by
  (descent mask, descents): an order is an extension of the one
  orientation whose arcs run from its earlier to its later ends.  It
  places vertices from the last position to the first and labels them by
  height, so each order's descents, and the orientation's descents under
  the labeling, are known as it is built; in its hook mode it meets only
  the extensions whose descent composition is a hook, 2^(sinks - 1) per
  orientation instead of all n! orders.  ``dual_linear_extensions`` lists
  the extensions of one given orientation with a recursion of its own.

The kernels read the labeling only through the orientation it induces
on the edges, and are cached on that.  The readers project the kernels'
packed counts: ``hook-t`` reads its three values off the walk's descent
masks, the sink kernel's packed polynomials and the coloring pass's keys
at the hooks alone, with no quasisymmetric map built, summing packed
polynomials and decoding each value once, and ``chrompoly`` reads the
number of color classes off the keys.  Only ``cqf`` decodes
compositions, in ``_coloring_profile`` and ``_orientation_compositions``.
Hook coefficients computed both ways must agree, which is what the
``verify``/``sweep`` commands and the test suite exercise exhaustively
at small vertex counts.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import factorial
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .graphs import (
    Graph,
    Labeling,
    Orientation,
    _shared_states,
    _transpose,
    acyclic_orientations,  # noqa: F401  (perfbench/shim.py wraps this binding)
    stable_partitions_by_type,
)
from .partitions import (
    Partition,
    _binomials,
    _compositions_by_mask,
    _hooks,
    _multiplicity_factorials,
    hook_partition,
    partitions_of,
)
from .symfunc import (
    QuasisymmetricF,
    QuasisymmetricM,
    SymmetricFunctionM,
    _monomials_at_ones,
    _s_to_e,
    m_to_s,
)
from .tableaux import kostka
from .tpoly import TPoly


class SinkProfile:
    """Histogram of acyclic orientations by number of sinks; immutable."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "counts", counts)  # (sinks, orientations), sinks ascending

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self):
        return hash((self.counts,))

    def __repr__(self):
        return f"SinkProfile(counts={self.counts!r})"

    def __getitem__(self, j: int) -> int:
        for sinks_, count in self.counts:
            if sinks_ == j:
                return count
        return 0

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)


@lru_cache(maxsize=8)
def csf_monomial(graph: Graph) -> SymmetricFunctionM:
    """Monomial coordinates of the chromatic symmetric function, computed
    once per graph and shared by every caller.

    The coefficient of m_lam counts colorings with color-class sizes
    exactly lam: stable partitions of type lam times the permutations of
    equal-size blocks among their colors.
    """
    types = stable_partitions_by_type(graph)
    orders = _multiplicity_factorials(graph.n)  # after the DP: a graph too large for it builds no table
    terms = {lam: count * orders[lam] for lam, count in types.items()}
    return SymmetricFunctionM._trusted(graph.n, terms)


@lru_cache(maxsize=8)
def csf_schur(graph: Graph) -> Mapping[tuple[int, ...], int]:
    """Schur coefficients of the chromatic symmetric function, computed
    once per graph: a read-only view, the same object for every caller."""
    return MappingProxyType(m_to_s(csf_monomial(graph)))


def hook_coefficients_via_schur(graph: Graph) -> tuple[int, ...]:
    """Entry k - 1 is the coefficient of the hook (k, 1, ..., 1) in
    ``csf_schur(graph)``, for k in 1..n."""
    schur = csf_schur(graph)
    return tuple(schur.get(hook, 0) for hook in _hooks(graph.n))


def hook_coefficients_via_kostka(graph: Graph) -> tuple[int, ...]:
    """Entry k - 1 is the coefficient of the hook (k, 1, ..., 1) read back
    through Kostka numbers, for k in 1..n: the m_hook coordinate of X_G =
    sum c_lam s_lam is the sum of c_lam K(lam, hook) over lam with lam_1 >= k,
    and K(hook, hook) = 1.  It reads the expansion that
    ``hook_coefficients_via_schur`` reads, so it checks ``m_to_s`` alone."""
    schur, monomial = csf_schur(graph), csf_monomial(graph).coeffs
    return tuple(
        monomial.get(hook, 0) - sum(schur.get(lam, 0) * K for lam, K in others)
        for hook, others in zip(_hooks(graph.n), _hook_kostka(graph.n))
    )


@lru_cache(maxsize=8)
def _hook_kostka(n: int) -> tuple[tuple[tuple[Partition, int], ...], ...]:
    """Entry k - 1 holds the pairs (lam, K(lam, hook)) for the hook (k, 1,
    ..., 1) of weight n and every other partition lam of n with lam_1 >= k."""
    return tuple(
        tuple((lam, kostka(lam, hook)) for lam in partitions_of(n) if lam[0] >= hook[0] and lam != hook)
        for hook in _hooks(n)
    )


def e_sums_by_length(graph: Graph) -> tuple[int, ...]:
    """Entry k - 1 is the sum of the e-coefficients of X_G over the
    partitions of length k, for k in 1..n; by Stanley's sink theorem it
    counts the acyclic orientations with k sinks."""
    by_length = [0] * (graph.n + 1)
    for lam, coeff in _s_to_e(graph.n, csf_schur(graph)).items():
        by_length[len(lam)] += coeff
    return tuple(by_length[1:])


@lru_cache(maxsize=8)
def sink_profile(graph: Graph) -> SinkProfile:
    """Sink histogram over all acyclic orientations, computed once per
    graph and shared by every caller, read off ``_sink_polys``.  The
    Taylor shift to P(y - 1; t), whose coefficient of y^s counts the
    orientations with s sinks by descents, runs on the packed ints, and the
    count at t = 1 is the sum of the digits of that int.  Since 2^w is 1
    modulo 2^w - 1, the sum is the int modulo 2^w - 1: it is exact, as the
    sum is at most n! < 2^w - 1 when n >= 2.  With fewer vertices there is
    no edge, and the int is its one digit."""
    n = graph.n
    width, p = _sink_polys(graph, tuple(_below(graph, None)))
    p = list(p)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            p[j] -= p[j + 1]
    if n >= 2:
        ones = (1 << width) - 1
        p = [h % ones for h in p]
    return SinkProfile(tuple((sinks, count) for sinks, count in enumerate(p) if count))


def _digits(h: int, width: int) -> list[int]:
    """The coefficients of a polynomial with coefficients in 0..2^width - 1
    from its value at t = 2^width, lowest power first."""
    digit, out = (1 << width) - 1, []
    while h:
        out.append(h & digit)
        h >>= width
    return out


def _signed_digits(h: int, width: int) -> list[int]:
    """The coefficients of a polynomial with coefficients in -2^(width - 1)
    .. 2^(width - 1) - 1 from its value at t = 2^width, lowest power first;
    width is at least 2."""
    digit, half, out = (1 << width) - 1, 1 << (width - 1), []
    while h:
        d = (h + half & digit) - half
        out.append(d)
        h = (h - d) >> width
    return out


# a(U; t) of the vertex sets U of graphs with at most _STORED_N vertices, packed
# as in _sink_polys, keyed by the induced subgraph with its orientation and
# shared by every such graph of the process; values are ints.  Cleared on
# entry to _sink_polys once it holds more than _SINK_STATES_CAP.
_SINK_STATES: dict[int, int] = {}
_SINK_STATES_CAP = 1 << 13


@lru_cache(maxsize=4)
def _sink_polys(graph: Graph, below: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(w, P) with P[j] the sum over the acyclic orientations O of
    C(sinks(O), j) t^descents(O) at t = 2^w, for j in 0..n: the
    coefficients of P(y; t) = sum over O of (1 + y)^sinks(O) t^descents(O).
    A descent is an arc u -> v with v in below[u], as ``_below`` gives it.

    No orientation is listed.  With a(U; t) the descent polynomial of the
    acyclic orientations of the induced subgraph G[U], sink removal gives
    (Stanley 1973, graded by Shareshian and Wachs 2016)
      a(U; t) = sum over nonempty stable T within U of
                (-1)^(|T|+1) t^d(T, U - T) a(U - T; t),
    since the orientations of G[U] whose sinks include T are those of
    G[U - T] with every edge to T pointing into T, and d(T, R) counts those
    edges whose lower end under the labeling is in T.  Summing all stable T,
    the empty one included,
      P(y; t) = sum_T y^|T| t^d(T, V - T) a(V - T; t)
              = sum over orientations O of (1 + y)^sinks(O) t^descents(O),
    and the sink histogram is read off P(y - 1; t).  This is the 3^n
    subset-sum scheme of Bjorklund, Husfeldt and Koivisto, "Set partitioning
    via inclusion-exclusion" (SIAM J. Comput. 2009).  Each a(U; t) is one
    int, the polynomial at t = 2^w, with w bits per power of t: a power of t
    is a shift, and since every coefficient that a reader decodes lies in
    0..n!, w = n!.bit_length() reads it back exactly however the signed
    terms before it carried.  w depends on n alone, so on graphs of at most
    ``_STORED_N`` vertices the values of the proper subsets are kept in
    ``_SINK_STATES``, keyed by the oriented induced subgraph, and shared by
    every graph.  The whole graph's, a(V; t) = P(0; t), is not summed
    itself: P(-1; t) = 0 gives it from the other coefficients.
    """
    n = graph.n
    adj = graph.adjacency_masks()
    lower, upper = [0] * n, [0] * n  # bits of the edges whose lower (upper) end under the labeling is v
    for e, (lo, hi) in enumerate(graph.edges):
        if not below[hi - 1] >> (lo - 1) & 1:
            lo, hi = hi, lo
        lower[lo - 1] |= 1 << e
        upper[hi - 1] |= 1 << e
    full = (1 << n) - 1
    stable = [True] * (full + 1)  # stable[T]: no edge inside T
    starts = [0] * (full + 1)  # starts[T]: the edges whose lower end is in T
    ends = [0] * (full + 1)  # ends[U]: the edges whose upper end is in U
    for t in range(1, full + 1):
        low = (t & -t).bit_length() - 1
        rest = t & (t - 1)
        stable[t] = stable[rest] and not adj[low] & rest
        starts[t] = starts[rest] | lower[low]
        ends[t] = ends[rest] | upper[low]
    width = factorial(n).bit_length()
    store, rel, sets = _shared_states(_SINK_STATES, _SINK_STATES_CAP, _transpose(below))  # bit a·n + b: a below b
    keys = [rel & mask for mask in sets]
    a = [1] * (full + 1)
    for u in range(1, full):  # the proper subsets
        total = store.get(keys[u])
        if total is None:
            total, t, up = 0, u, ends[u]  # T is stable: no edge of T ends in T
            while t:
                if stable[t]:
                    term = a[u ^ t] << width * (starts[t] & up).bit_count()
                    total += term if t.bit_count() & 1 else -term
                t = (t - 1) & u
            store[keys[u]] = total
        a[u] = total
    p = [0] * (n + 1)  # coefficients of P(y; t)
    for t in range(1, full + 1):
        if stable[t]:  # every edge leaving T ends in V - T
            p[t.bit_count()] += a[full ^ t] << width * starts[t].bit_count()
    # P(-1; t) counts the orientations with no sink: none, unless n = 0
    p[0] = sum(p[j] if j & 1 else -p[j] for j in range(1, n + 1)) if n else 1
    return width, tuple(p)


def orientations_by_sinks(graph: Graph) -> tuple[int, ...]:
    """Entry k - 1 counts the acyclic orientations with k sinks, for k in 1..n."""
    profile = sink_profile(graph)
    return tuple(profile[k] for k in range(1, graph.n + 1))


def hook_coefficient_via_sinks(graph: Graph, k: int) -> int:
    """Binomial-weighted sink enumeration for the hook coefficient."""
    hook_partition(graph.n, k)  # rejects k outside 1..n
    return hook_coefficients_via_sinks(graph)[k - 1]


def hook_coefficients_via_sinks(graph: Graph) -> tuple[int, ...]:
    """Entry k - 1 is the sum over acyclic orientations of C(sinks - 1,
    k - 1), ``hook_coefficient_via_sinks(graph, k)``, for k in 1..n."""
    binom, counts = _binomials(graph.n), sink_profile(graph).counts
    return tuple(sum(binom[j - 1][k] * a for j, a in counts) for k in range(graph.n))


def chromatic_polynomial_via_specialization(graph: Graph) -> tuple[int, ...]:
    """Entry k is X_G at x_1 = ... = x_k = 1 and every other variable 0,
    for k in 0..n: the chromatic polynomial at k, read from the monomial
    coordinates."""
    terms, ones = csf_monomial(graph).coeffs.items(), _monomials_at_ones(graph.n)
    return tuple(sum(c * ones[lam][k] for lam, c in terms) for k in range(graph.n + 1))


def chromatic_polynomial_via_colorings(graph: Graph) -> tuple[int, ...]:
    """Entry k counts the proper colorings with at most k colors, for k in
    0..n, by enumeration: a coloring onto the colors 1..j stands for the
    C(k, j) ways to choose its j colors.  No stable partition is used: j is
    the number of partial sums that a key of ``_coloring_counts`` holds."""
    width, keys, counts = _coloring_counts(graph, tuple(_below(graph, None)))
    by_size = [0] * (graph.n + 1)  # by_size[j]: the colorings onto 1..j
    for key, count in zip(keys, counts):
        by_size[(key >> width).bit_count()] += count
    return tuple(sum(map(mul, by_size, row)) for row in _binomials(graph.n))


# ---------------------------------------------------------------------------
# quasisymmetric refinement


def _below(graph: Graph, zeta: Labeling | None) -> list[int]:
    """Entry v masks the neighbours of vertex v (0-indexed) with a smaller
    label under zeta, or a smaller index when zeta is None."""
    if zeta is not None and zeta.n != graph.n:
        raise ValueError("labeling does not match the graph's vertex count")
    below = [0] * graph.n
    for a, b in graph.edges:
        if zeta is None or zeta.label(a) < zeta.label(b):
            below[b - 1] |= 1 << (a - 1)
        else:
            below[a - 1] |= 1 << (b - 1)
    return below


def _coloring_profile(graph: Graph, zeta: Labeling | None) -> tuple[tuple[tuple[tuple[int, ...], int], int], ...]:
    """((class-size composition, ascents), colorings) over the proper
    colorings whose colors form an initial segment 1..j, one entry per
    distinct pair, ascending in (descent mask of the composition, ascents).
    An ascent is an edge whose end with the smaller label under zeta (the
    smaller index when zeta is None) has the smaller color, so the profile
    depends on zeta only through the orientation it induces.  Decoded from
    the keys of ``_coloring_counts``, which is cached on that."""
    width, keys, counts = _coloring_counts(graph, tuple(_below(graph, zeta)))
    table = _compositions_by_mask(graph.n)
    low, asc = len(table) - 1, (1 << width) - 1  # the partial sum n is dropped
    return tuple(((table[key >> width & low], key & asc), count) for key, count in sorted(zip(keys, counts)))


# States of the vertex sets of graphs with at most _STORED_N vertices, keyed
# by the induced subgraph with its orientation and shared by every such graph
# of the process; values are pairs (keys, counts) of tuples.  Cleared on
# entry to _coloring_counts once it holds more than _STATES_CAP.
_STATES: dict[int, tuple] = {}
_STATES_CAP = 1 << 13


@lru_cache(maxsize=4)
def _coloring_counts(graph: Graph, below: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(w, keys, counts): the colorings onto an initial segment 1..j under
    the labeling whose ``_below`` is below, counted by one int key each:
    the ascents in the low w bits, and bit w + p - 1 above them for each
    partial sum p of the class-size composition, n included.  The keys are
    distinct and in no fixed order.

    A coloring onto 1..j is a sequence of j nonempty stable color classes
    (Stanley 1995).  The state of a vertex set S counts the colorings of S
    by such keys.  One pass over the sets in ascending order sums it over
    the last color class T, a nonempty stable subset of S, from the state
    of S - T, met before S as a smaller integer; its keys gain the partial
    sum |S| and the ascents of the edges that run up the labeling from
    S - T into T.  The work is one step per (S, T, key of S - T), however
    many colorings a key counts.  The whole graph comes last, and its state
    is the result.

    The state of S depends only on the subgraph S induces and the
    orientation its edges get, so on graphs of at most ``_STORED_N``
    vertices the states of the proper subsets are kept in ``_STATES`` on
    that, and each is looked up there before it is computed: a graph
    reuses every state that another graph stored.  Other graphs keep a
    memo of their own, keyed by the set alone.
    """
    n = graph.n
    adj = graph.adjacency_masks()
    lower, upper = [0] * n, [0] * n  # bits of the edges whose lower (upper) end under the labeling is v
    for e, (a, b) in enumerate(graph.edges):
        if not below[b - 1] >> (a - 1) & 1:
            a, b = b, a
        lower[a - 1] |= 1 << e
        upper[b - 1] |= 1 << e
    full = (1 << n) - 1
    stable = [True] * (full + 1)  # stable[T]: no edge inside T
    starts = [0] * (full + 1)  # starts[S]: the edges whose lower end is in S
    ends = [0] * (full + 1)  # ends[T]: the edges whose upper end is in T
    for t in range(1, full + 1):
        low = (t & -t).bit_length() - 1
        rest = t & (t - 1)
        stable[t] = stable[rest] and not adj[low] & rest
        starts[t] = starts[rest] | lower[low]
        ends[t] = ends[rest] | upper[low]
    width = (n * (n - 1) // 2).bit_length()  # the ascents number at most C(n, 2)
    store, rel, sets = _shared_states(_STATES, _STATES_CAP, _transpose(below))  # bit a·n + b: a below b
    keys = [rel & mask for mask in sets]
    for s in range(full + 1):
        if keys[s] in store:
            continue
        sums: defaultdict[int, int] = defaultdict(int)
        if s:
            part, t = 1 << (width + s.bit_count() - 1), s
            while t:
                if stable[t]:
                    rest = s ^ t
                    delta = (starts[rest] & ends[t]).bit_count() + part
                    for key, count in zip(*store[keys[rest]]):
                        sums[key + delta] += count
                t = (t - 1) & s
        else:
            sums[0] = 1  # the empty coloring
        if s != full:  # the whole graph's state is met once, last: not stored
            store[keys[s]] = (tuple(sums), tuple(sums.values()))
    return width, tuple(sums), tuple(sums.values())


def cqf_monomial(graph: Graph, zeta: Labeling | None = None) -> QuasisymmetricM:
    """Monomial coordinates of the chromatic quasisymmetric function:
    the coefficient of M_alpha collects t^(ascents) over proper colorings
    surjective onto 1..len(alpha) with class sizes alpha."""
    m = graph.m
    acc: dict[tuple[int, ...], list[int]] = {}
    for (comp, asc), count in _coloring_profile(graph, zeta):
        arr = acc.get(comp)
        if arr is None:
            arr = acc[comp] = [0] * (m + 1)
        arr[asc] += count
    return QuasisymmetricM._trusted(graph.n, {comp: TPoly._trusted(arr) for comp, arr in acc.items()})


def sink_minimal_increasing_labeling(o: Orientation) -> Labeling:
    """The canonical labeling that decreases along directed paths and
    gives the sinks the smallest labels.

    Sinks are labeled 1..s by vertex index; afterwards the smallest
    vertex whose out-neighbours are all labeled receives the next label.
    """
    if not o.is_acyclic():
        raise ValueError("orientation has a directed cycle")
    n, out = o.graph.n, o.out_masks()
    labels = [0] * n
    labeled = 0
    next_label = 1
    for v in range(n):
        if out[v] == 0:
            labels[v] = next_label
            next_label += 1
            labeled |= 1 << v
    while next_label <= n:
        v = 0
        while labeled >> v & 1 or out[v] & ~labeled:
            v += 1
        labels[v] = next_label
        next_label += 1
        labeled |= 1 << v
    return Labeling(labels)


def dual_linear_extensions(o: Orientation, omega: Labeling) -> tuple[tuple[int, ...], ...]:
    """All vertex sequencings that respect reachability (tails before
    heads), read through omega as one-line permutations, sorted."""
    if not o.is_acyclic():
        raise ValueError("orientation has a directed cycle")
    n = o.graph.n
    if omega.n != n:
        raise ValueError("labeling does not match the orientation's graph")
    tails = _transpose(o.out_masks())  # tails[v]: the vertices with an arc into v
    labels, word, words = omega.labels, [0] * n, []
    full = (1 << n) - 1

    def rec(placed: int, i: int):
        if i == n:
            words.append(tuple(word))
            return
        rest = full ^ placed
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if not tails[v] & ~placed:
                word[i] = labels[v]
                rec(placed | low, i + 1)

    rec(0, 0)
    del rec  # rec refers to itself: break the cycle so its tables are freed at once
    return tuple(sorted(words))


def _orientation_compositions(graph: Graph, zeta: Labeling | None, *, hooks: bool = False) -> tuple:
    """((composition, descents), orders) over the pairs of an acyclic
    orientation and one of its linear extensions, one entry per distinct
    pair, ascending in (descent mask of the composition, descents), from one
    walk over the vertex orders.  The descents are the orientation's
    arcs u -> v with v below u under zeta (by index when zeta is None); the
    composition is that of the order's reflected descent set
    {i : n - i in Des} under the height labeling.  Every labeling that
    decreases along the arcs gives an orientation the same descent sets
    over its linear extensions (Stanley 1972).  With hooks, only the orders
    whose composition is a hook (k, 1^(n-k)) are walked: 2^(sinks - 1) per
    orientation, exactly one of them with k = 1.  The walk reads zeta only
    through the orientation it induces, and is cached on that."""
    table, tally = _compositions_by_mask(graph.n), _order_counts(graph, tuple(_below(graph, zeta)), hooks)
    return tuple(((table[des], down), count) for (des, down), count in tally)


@lru_cache(maxsize=4)
def _order_counts(graph: Graph, below: tuple[int, ...], hooks: bool) -> tuple[tuple[tuple[int, int], int], ...]:
    """The entries of ``_orientation_compositions`` under the labeling whose
    ``_below`` is below, each composition given by its descent mask (bit
    i - 1 for descent i), ascending.

    One recursion meets every order of the vertices once, each of them a
    linear extension of the orientation whose arcs run from the earlier to
    the later end of each edge.  Vertices are placed from the last position
    to the first, so the neighbours of v already placed are the heads of its
    arcs: down counts the arcs v -> u with u in below[v].  Each vertex is labeled by
    its height, the longest directed path to a sink, ties broken by index;
    bit n - 2 - i of des is set when the label at position i is larger than
    the one at i + 1.  With hooks, only the orders whose labels fall and then
    rise are met: read from the back, an ascent after a descent ends the
    branch.  Placing position 1 leaves one vertex, u, for position 0: its
    height, descent and falling arcs are read there and the order counted in
    tally[des, down], with no call for position 0."""
    n = graph.n
    adj = graph.adjacency_masks()
    tally: defaultdict[tuple[int, int], int] = defaultdict(int)
    full = (1 << n) - 1
    height = [0] * n + [n]  # the sentinel height[n] puts no descent after the last position
    level = [0] * n  # level[d]: the placed vertices of height d

    def rec(placed: int, i: int, down: int, last: int, des: int, rise: int):
        top = height[last]
        free = full ^ placed
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            h, heads = rise, adj[v] & placed  # rise is one more than the largest height placed
            while h and not heads & level[h - 1]:
                h -= 1
            if h > top or h == top and v > last:
                fell = des | 1 << (n - 2 - i)
            elif hooks and des:
                continue
            else:
                fell = des
            arcs_down = down + (heads & below[v]).bit_count()
            if i > 1:
                height[v] = h
                level[h] |= low
                rec(placed | low, i - 1, arcs_down, v, fell, rise + (h == rise))
                level[h] ^= low
                continue
            ubit = free ^ low  # i == 1: u, the one vertex left, goes to position 0
            u = ubit.bit_length() - 1
            g, heads = rise, adj[u] & placed
            while g and not heads & level[g - 1]:
                g -= 1
            if adj[u] & low:
                heads |= low
                if g <= h:
                    g = h + 1
            if g > h or g == h and u > v:
                fell |= 1 << (n - 2)
            elif hooks and fell:
                continue
            tally[fell, arcs_down + (heads & below[u]).bit_count()] += 1

    if n > 1:
        rec(0, n - 1, 0, n, 0, 0)
    else:
        tally[0, 0] = 1  # the empty order, or the one order of one vertex
    del rec  # rec refers to itself: break the cycle so the tables are freed at once
    return tuple(sorted(tally.items()))


def cqf_fundamental_via_orientations(graph: Graph, zeta: Labeling | None = None) -> QuasisymmetricF:
    """Fundamental coordinates assembled from acyclic orientations:
    each orientation contributes t^(descents) times the fundamental
    terms of its dual linear extensions."""
    m = graph.m
    acc: dict[tuple[int, ...], list[int]] = {}
    for (comp, des), count in _orientation_compositions(graph, zeta):
        arr = acc.get(comp)
        if arr is None:
            arr = acc[comp] = [0] * (m + 1)
        arr[des] += count
    return QuasisymmetricF._trusted(graph.n, {comp: TPoly._trusted(arr) for comp, arr in acc.items()})


def hook_coefficients_via_extensions_t(graph: Graph, zeta: Labeling | None) -> tuple[TPoly, ...]:
    """Entry k - 1 is the coefficient of F_(k,1^(n-k)) in
    ``cqf_fundamental_via_orientations(graph, zeta)``, for k in 1..n, read
    from the hook walk, which meets only the orders of those compositions:
    one pass bins its entries by (k, descents).  The hook (k, 1^(n-k)) has
    the descents k..n-1, so k is one more than the lowest bit of its
    descent mask, or n when the mask is empty."""
    n, m = graph.n, graph.m
    if not n:
        return ()
    arrays = [[0] * (m + 1) for _ in range(n)]  # arrays[k - 1][descents]
    for (mask, des), count in _order_counts(graph, tuple(_below(graph, zeta)), True):
        arrays[((mask & -mask).bit_length() or n) - 1][des] += count
    return tuple(TPoly._trusted(arr) for arr in arrays)


def hook_coefficients_via_orientations_t(graph: Graph, zeta: Labeling | None) -> tuple[TPoly, ...]:
    """Entry k - 1 is the binomial-weighted descent generating polynomial
    over acyclic orientations, sum of C(sinks-1, k-1) t^(descents), for k in
    1..n.  That is the coefficient of y^(k-1) in the sum over orientations
    of (1 + y)^(sinks - 1) t^descents, which is P(y; t) / (1 + y) with P from
    the sink kernel, ``_sink_polys``: every orientation has a sink.  The
    division runs on P's packed ints, from the top coefficient down, and
    each quotient coefficient is decoded once."""
    width, p = _sink_polys(graph, tuple(_below(graph, zeta)))
    quotient, h = [], 0
    for j in range(graph.n, 0, -1):
        h = p[j] - h
        quotient.append(TPoly._trusted(_digits(h, width)))
    return tuple(reversed(quotient))


def hook_coefficients_via_colorings_t(graph: Graph, zeta: Labeling | None) -> tuple[TPoly, ...]:
    """Entry k - 1 is the coefficient of F_(k,1^(n-k)) in
    ``qsym_M_to_F(cqf_monomial(graph, zeta))``, for k in 1..n, with the
    Moebius sum taken at the hooks only.  The descent set of a composition
    alpha lies within the hook's, {k..n-1}, exactly when alpha_1 >= k, so
        [F_(k,1^(n-k))] = sum over alpha_1 >= k of (-1)^(n-k+1-len(alpha)) c_alpha(t).
    One pass over the keys of ``_coloring_counts`` bins c_alpha(t) by
    alpha_1, the lowest partial sum a key holds, and the parity of
    len(alpha), both read from ``_hook_slots``.  Each c_alpha(t) is one int,
    the polynomial at t = 2^w: every coefficient of every sum below is at
    most the number of colorings counted in absolute value, and w leaves a
    sign bit above that.  The sums over alpha_1 >= k then run on those ints
    from k = n down, and each is decoded once."""
    n = graph.n
    if not n:
        return ()
    width, keys, counts = _coloring_counts(graph, tuple(_below(graph, zeta)))
    asc, slots = (1 << width) - 1, _hook_slots(n)
    w = sum(counts).bit_length() + 1
    bins = [0] * (2 * n + 2)  # bins[2 alpha_1 + (len(alpha) & 1)]
    for key, count in zip(keys, counts):
        bins[slots[key >> width]] += count << w * (key & asc)
    polys, acc = [], 0
    for k in range(n, 0, -1):
        acc += bins[2 * k] - bins[2 * k + 1]  # the sum of c_alpha (-1)^len(alpha) over alpha_1 >= k
        polys.append(TPoly._trusted(_signed_digits(acc if (n - k) & 1 else -acc, w)))
    return tuple(reversed(polys))


@lru_cache(maxsize=8)
def _hook_slots(n: int) -> tuple[int, ...]:
    """Entry S is 2 alpha_1 + (len(alpha) & 1) for the composition alpha of
    n whose partial sums p, n included, are the bits p - 1 of S, for every
    S below 2^n: alpha_1 is the lowest partial sum, and len(alpha) counts
    them."""
    return tuple(2 * (s & -s).bit_length() + (s.bit_count() & 1) for s in range(1 << n))
