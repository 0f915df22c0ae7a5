"""Chromatic symmetric and quasisymmetric functions of labeled graphs.

The same quantities are reachable along two independent routes:

* colorings: monomial coordinates from stable partitions and the Schur
  coefficients from an exact basis change, each computed once per graph;
  the quasisymmetric refinement and the chromatic polynomial's
  enumeration side come from ``_coloring_profile``, one ascending pass
  over the vertex sets that adds one stable color class at a time and
  counts colorings per distinct (composition, ascents) pair, never one
  coloring at a time; on graphs of sweep size its states are stored per
  induced subgraph and shared;
* orientations: acyclic orientations weighted by sinks and descents,
  assembled into fundamental coordinates through linear extensions.  The
  sink histogram is a 3^n subset sum over the acyclic orientations of
  the induced subgraphs, counted without listing one; on graphs of sweep
  size those counts go to a store of their own.  One
  recursion over vertex orders, in ``_order_counts``, meets every
  (orientation, linear extension) pair once and tallies it in place: an
  order is an extension of the one orientation whose arcs run from its
  earlier to its later ends.  It places vertices from the last position
  to the first and labels them by height, so each order's descents, and
  the orientation's descents under the labeling, are known as it is
  built; in its hook mode it meets only the extensions whose descent
  composition is a hook, 2^(sinks - 1) per orientation instead of all n!
  orders.  ``dual_linear_extensions`` lists the extensions of one given
  orientation with a recursion of its own.

Both kernels read the labeling only through the orientation it induces
on the edges, and are cached on that.  ``hook-t`` reads its three values
off their tallies at the hooks alone, with no quasisymmetric map built.
Hook coefficients computed both ways must agree, which is what the
``verify``/``sweep`` commands and the test suite exercise exhaustively
at small vertex counts.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import comb, factorial

from .graphs import (
    Graph,
    Labeling,
    Orientation,
    _shared_states,
    _transpose,
    acyclic_orientations,  # noqa: F401  (perfbench/shim.py wraps this binding)
    stable_partitions_by_type,
)
from .partitions import Partition, _binomials, _compositions_by_mask, _hooks, hook_partition, multiplicities, partitions_of
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
    terms = {}
    for lam, count in stable_partitions_by_type(graph).items():
        ways = count
        for mult in multiplicities(lam).values():
            ways *= factorial(mult)
        terms[lam] = ways
    return SymmetricFunctionM._trusted(graph.n, terms)


def csf_schur(graph: Graph) -> dict[tuple[int, ...], int]:
    """Schur coefficients of the chromatic symmetric function, as a fresh
    dict that the caller may keep."""
    return dict(_schur_terms(graph))


@lru_cache(maxsize=8)
def _schur_terms(graph: Graph) -> dict[tuple[int, ...], int]:
    """The coefficients of ``csf_schur``, computed once per graph."""
    return m_to_s(csf_monomial(graph))


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


# a(U) of the vertex sets U of graphs with at most _STORED_N vertices, keyed
# by the induced subgraph and shared by every such graph of the process;
# values are ints.  Cleared on entry to sink_profile once it holds more
# than _SINK_STATES_CAP.
_SINK_STATES: dict[int, int] = {}
_SINK_STATES_CAP = 1 << 13


@lru_cache(maxsize=8)
def sink_profile(graph: Graph) -> SinkProfile:
    """Sink histogram over all acyclic orientations, computed once per
    graph and shared by every caller."""
    # No orientation is listed.  With a(U) the number of acyclic orientations
    # of the induced subgraph G[U], sink removal gives (Stanley 1973)
    #   a(U) = sum over nonempty stable T within U of (-1)^(|T|+1) a(U - T),
    # since the orientations of G[U] whose sinks include T are those of
    # G[U - T] with every edge to T pointing into T.  Summing all stable T,
    # the empty one included,
    #   P(y) = sum_T y^|T| a(V - T) = sum over orientations O of (1 + y)^sinks(O),
    # so the histogram is the coefficient list of P(x - 1).  This is the
    # 3^n subset-sum scheme of Bjorklund, Husfeldt and Koivisto, "Set
    # partitioning via inclusion-exclusion" (SIAM J. Comput. 2009).  a(U)
    # depends only on G[U], so the values of proper subsets are shared
    # through _shared_states; the whole graph's is met once, last.
    n = graph.n
    adj = graph.adjacency_masks()
    full = (1 << n) - 1
    stable = [True] * (full + 1)  # stable[T]: no edge inside T
    size = [0] * (full + 1)
    for t in range(1, full + 1):
        low = (t & -t).bit_length() - 1
        rest = t & (t - 1)
        stable[t] = stable[rest] and not adj[low] & rest
        size[t] = size[rest] + 1
    store, rel, sets = _shared_states(_SINK_STATES, _SINK_STATES_CAP, adj)
    keys = [rel & mask for mask in sets]
    a = [1] * (full + 1)
    for u in range(1, full + 1):
        total = store.get(keys[u])
        if total is None:
            total = 0
            t = u
            while t:
                if stable[t]:
                    total += a[u ^ t] if size[t] & 1 else -a[u ^ t]
                t = (t - 1) & u
            if u != full:
                store[keys[u]] = total
        a[u] = total
    p = [0] * (n + 1)  # coefficients of P(y)
    for t in range(full + 1):
        if stable[t]:
            p[size[t]] += a[full ^ t]
    counts = []
    for s in range(n + 1):
        h = sum(p[j] * comb(j, s) * (-1) ** (j - s) for j in range(s, n + 1))
        if h:
            counts.append((s, h))
    return SinkProfile(tuple(counts))


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
    C(k, j) ways to choose its j colors.  No stable partition is used."""
    by_size = [0] * (graph.n + 1)  # by_size[j]: the colorings onto 1..j
    for (comp, _), count in _coloring_profile(graph, None):
        by_size[len(comp)] += count
    return tuple(sum(count * c for count, c in zip(by_size, row)) for row in _binomials(graph.n))


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
    depends on zeta only through the orientation it induces, and is cached
    on that."""
    return _coloring_counts(graph, tuple(_below(graph, zeta)))


# States of the vertex sets of graphs with at most _STORED_N vertices, keyed
# by the induced subgraph with its orientation and shared by every such graph
# of the process; values are pairs (keys, counts) of tuples.  Cleared on
# entry to _coloring_counts once it holds more than _STATES_CAP.
_STATES: dict[int, tuple] = {}
_STATES_CAP = 1 << 13


@lru_cache(maxsize=4)
def _coloring_counts(graph: Graph, below: tuple[int, ...]) -> tuple:
    """The profile of ``_coloring_profile`` under the labeling whose
    ``_below`` is below.

    A coloring onto 1..j is a sequence of j nonempty stable color classes
    (Stanley 1995).  The state of a vertex set S counts the colorings of S
    by one int key: the ascents in the low bits, and bit w + p - 1 above
    them for each partial sum p of the composition.  One pass over the
    sets in ascending order sums it over the last color class T, a
    nonempty stable subset of S, from the state of S - T, met before S as
    a smaller integer; its keys gain the partial sum |S| and the ascents
    of the edges that run up the labeling from S - T into T.  The work is
    one step per (S, T, key of S - T), however many colorings a key
    counts.  The whole graph comes last, and its state is the result.

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
    table = _compositions_by_mask(n)  # sums is the whole graph's state
    low, asc = len(table) - 1, (1 << width) - 1  # the partial sum n is dropped
    return tuple(((table[key >> width & low], key & asc), sums[key]) for key in sorted(sums))


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
    """((composition, descents, sinks), orders) over the pairs of an acyclic
    orientation and one of its linear extensions, one entry per distinct
    triple, ascending in (descent mask of the composition, descents, sinks),
    from one walk over the vertex orders.  The descents are the orientation's
    arcs u -> v with v below u under zeta (by index when zeta is None); the
    composition is that of the order's reflected descent set
    {i : n - i in Des} under the height labeling.  Every labeling that
    decreases along the arcs gives an orientation the same descent sets
    over its linear extensions (Stanley 1972).  With hooks, only the orders
    whose composition is a hook (k, 1^(n-k)) are walked: 2^(sinks - 1) per
    orientation, exactly one of them with k = 1.  The walk reads zeta only
    through the orientation it induces, and is cached on that."""
    return _order_counts(graph, tuple(_below(graph, zeta)), hooks)


@lru_cache(maxsize=4)
def _order_counts(graph: Graph, below: tuple[int, ...], hooks: bool) -> tuple:
    """The entries of ``_orientation_compositions`` under the labeling whose
    ``_below`` is below.

    One recursion meets every order of the vertices once, each of them a
    linear extension of the orientation whose arcs run from the earlier to
    the later end of each edge.  Vertices are placed from the last position
    to the first, so the neighbours of v already placed are the heads of its
    arcs: down counts the arcs v -> u with u in below[v], and sinks the
    vertices placed with no neighbour after them.  Each vertex is labeled by
    its height, the longest directed path to a sink, ties broken by index;
    bit n - 2 - i of des is set when the label at position i is larger than
    the one at i + 1.  With hooks, only the orders whose labels fall and then
    rise are met: read from the back, an ascent after a descent ends the
    branch.  Placing position 0 completes an order, counted in
    tally[des, down, sinks]."""
    n = graph.n
    adj = graph.adjacency_masks()
    tally: defaultdict[tuple[int, int, int], int] = defaultdict(int)
    full = (1 << n) - 1
    height = [0] * n + [n]  # the sentinel height[n] puts no descent after the last position
    level = [0] * n  # level[d]: the placed vertices of height d

    def rec(placed: int, i: int, down: int, last: int, des: int, sinks: int, rise: int):
        top = height[last]
        rest = full ^ placed
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
            if i:
                height[v] = h
                level[h] |= low
                rec(placed | low, i - 1, arcs_down, v, fell, sinks + (not h), rise + (h == rise))
                level[h] ^= low
            else:
                tally[fell, arcs_down, sinks + (not h)] += 1

    if n:
        rec(0, n - 1, 0, n, 0, 0, 0)
    else:
        tally[0, 0, 0] = 1  # the empty order
    del rec  # rec refers to itself: break the cycle so the tables are freed at once
    table = _compositions_by_mask(n)
    return tuple(((table[des], down, sinks), tally[des, down, sinks]) for des, down, sinks in sorted(tally))


def cqf_fundamental_via_orientations(graph: Graph, zeta: Labeling | None = None) -> QuasisymmetricF:
    """Fundamental coordinates assembled from acyclic orientations:
    each orientation contributes t^(descents) times the fundamental
    terms of its dual linear extensions."""
    m = graph.m
    acc: dict[tuple[int, ...], list[int]] = {}
    for (comp, des, _), count in _orientation_compositions(graph, zeta):
        arr = acc.get(comp)
        if arr is None:
            arr = acc[comp] = [0] * (m + 1)
        arr[des] += count
    return QuasisymmetricF._trusted(graph.n, {comp: TPoly._trusted(arr) for comp, arr in acc.items()})


def hook_coefficients_via_extensions_t(graph: Graph, zeta: Labeling | None) -> tuple[TPoly, ...]:
    """Entry k - 1 is the coefficient of F_(k,1^(n-k)) in
    ``cqf_fundamental_via_orientations(graph, zeta)``, for k in 1..n, read
    from the hook walk, which meets only the orders of those compositions:
    one pass bins its entries by (k, descents)."""
    n, m = graph.n, graph.m
    if not n:
        return ()
    arrays = [[0] * (m + 1) for _ in range(n)]  # arrays[k - 1][descents]
    for (comp, des, _), count in _orientation_compositions(graph, zeta, hooks=True):
        arrays[comp[0] - 1][des] += count
    return tuple(TPoly._trusted(arr) for arr in arrays)


def hook_coefficients_via_orientations_t(graph: Graph, zeta: Labeling | None) -> tuple[TPoly, ...]:
    """Entry k - 1 is the binomial-weighted descent generating polynomial
    over acyclic orientations, sum of C(sinks-1, k-1) t^(descents), for k in
    1..n.  It reads the cached hook walk that
    ``hook_coefficients_via_extensions_t`` also reads, which meets every
    orientation once with k = 1, through the one extension whose labels
    only fall.  One pass bins those entries by (sinks, descents); each bin
    then serves every k."""
    n, m = graph.n, graph.m
    falling = (1,) * n
    bins = [[0] * (m + 1) for _ in range(n + 1)]  # bins[sinks][descents]
    for (comp, des, sinks_), count in _orientation_compositions(graph, zeta, hooks=True):
        if comp == falling:
            bins[sinks_][des] += count
    binom = _binomials(n)
    polys = []
    for k in range(n):
        arr = [0] * (m + 1)
        for s in range(k + 1, n + 1):
            w = binom[s - 1][k]
            arr = [a + w * count for a, count in zip(arr, bins[s])]
        polys.append(TPoly._trusted(arr))
    return tuple(polys)


def hook_coefficients_via_colorings_t(graph: Graph, zeta: Labeling | None) -> tuple[TPoly, ...]:
    """Entry k - 1 is the coefficient of F_(k,1^(n-k)) in
    ``qsym_M_to_F(cqf_monomial(graph, zeta))``, for k in 1..n, with the
    Moebius sum taken at the hooks only.  The descent set of a composition
    alpha lies within the hook's, {k..n-1}, exactly when alpha_1 >= k, so
        [F_(k,1^(n-k))] = sum over alpha_1 >= k of (-1)^(n-k+1-len(alpha)) c_alpha(t).
    One pass over the coloring profile bins c_alpha (-1)^len(alpha) by
    alpha_1; the sums over alpha_1 >= k then run from k = n down."""
    n, m = graph.n, graph.m
    if not n:
        return ()
    bins = [[0] * (m + 1) for _ in range(n + 1)]  # bins[alpha_1][ascents]
    for (comp, asc), count in _coloring_profile(graph, zeta):
        bins[comp[0]][asc] += -count if len(comp) & 1 else count
    polys = []
    acc = [0] * (m + 1)
    for k in range(n, 0, -1):
        acc = [a + b for a, b in zip(acc, bins[k])]
        polys.append(TPoly._trusted(acc if (n - k) & 1 else [-a for a in acc]))
    return tuple(reversed(polys))

