"""Chromatic symmetric and quasisymmetric functions of labeled graphs.

The same quantities are reachable along two independent routes:

* colorings: monomial coordinates from stable partitions, then exact
  basis changes; the quasisymmetric refinement and the chromatic
  polynomial's enumeration side come from one recursion over proper
  colorings, ``_coloring_profile``;
* orientations: acyclic orientations weighted by sinks and descents,
  assembled into fundamental coordinates through linear extensions.

Hook coefficients computed both ways must agree, which is what the
``verify``/``sweep`` commands and the test suite exercise exhaustively
at small vertex counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial

from .graphs import (
    Graph,
    Labeling,
    Orientation,
    acyclic_orientation_masks,
    acyclic_orientations,
    stable_partitions_by_type,
)
from .partitions import composition_from_descents, multiplicities
from .symfunc import (
    QuasisymmetricF,
    QuasisymmetricM,
    SymmetricFunctionM,
    m_to_e,
    m_to_s,
    specialize_w_k,
)
from .tableaux import descent_set
from .tpoly import TPoly


@dataclass(frozen=True)
class SinkProfile:
    """Histogram of acyclic orientations by number of sinks."""

    counts: tuple[tuple[int, int], ...]  # (sinks, orientations), sinks ascending

    def __getitem__(self, j: int) -> int:
        for sinks_, count in self.counts:
            if sinks_ == j:
                return count
        return 0

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)


def csf_monomial(graph: Graph) -> SymmetricFunctionM:
    """Monomial coordinates of the chromatic symmetric function.

    The coefficient of m_lam counts colorings with color-class sizes
    exactly lam: stable partitions of type lam times the permutations of
    equal-size blocks among their colors.
    """
    coeffs = {}
    for lam, count in stable_partitions_by_type(graph).items():
        ways = count
        for mult in multiplicities(lam).values():
            ways *= factorial(mult)
        coeffs[lam] = ways
    return SymmetricFunctionM(graph.n, coeffs)


def csf_schur(graph: Graph) -> dict[tuple[int, ...], int]:
    """Schur coefficients of the chromatic symmetric function."""
    return m_to_s(csf_monomial(graph))


@lru_cache(maxsize=8)
def _sink_counts(graph: Graph) -> tuple[tuple[int, int], ...]:
    # No orientation is listed.  With a(U) the number of acyclic orientations
    # of the induced subgraph G[U], sink removal gives (Stanley 1973)
    #   a(U) = sum over nonempty stable T within U of (-1)^(|T|+1) a(U - T),
    # since the orientations of G[U] whose sinks include T are those of
    # G[U - T] with every edge to T pointing into T.  Summing all stable T,
    # the empty one included,
    #   P(y) = sum_T y^|T| a(V - T) = sum over orientations O of (1 + y)^sinks(O),
    # so the histogram is the coefficient list of P(x - 1).  This is the
    # 3^n subset-sum scheme of Bjorklund, Husfeldt and Koivisto, "Set
    # partitioning via inclusion-exclusion" (SIAM J. Comput. 2009).
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
    a = [1] * (full + 1)
    for u in range(1, full + 1):
        total = 0
        t = u
        while t:
            if stable[t]:
                total += a[u ^ t] if size[t] & 1 else -a[u ^ t]
            t = (t - 1) & u
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
    return tuple(counts)


def sink_profile(graph: Graph) -> SinkProfile:
    """Sink histogram over all acyclic orientations."""
    return SinkProfile(_sink_counts(graph))


def hook_coefficient_via_sinks(graph: Graph, k: int) -> int:
    """Binomial-weighted sink enumeration for the hook coefficient."""
    if not 1 <= k <= graph.n:
        raise ValueError(f"hook arm length must be in 1..{graph.n}, got {k}")
    return sum(comb(j - 1, k - 1) * a for j, a in _sink_counts(graph))


def chromatic_polynomial_value(graph: Graph, k: int) -> int:
    """Number of proper colorings with at most k colors, by specialization."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return specialize_w_k(csf_monomial(graph), k)


def chromatic_polynomial_by_colorings(graph: Graph, k: int) -> int:
    """Number of proper colorings with at most k colors, by enumeration:
    a coloring onto the colors 1..j stands for the C(k, j) ways to choose
    its j colors.  No stable partition is used."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    by_colors = Counter(len(comp) for comp, _ in _coloring_profile(graph))
    return sum(count * comb(k, j) for j, count in by_colors.items())


# ---------------------------------------------------------------------------
# quasisymmetric refinement


def _zeta_bits(graph: Graph, zeta: Labeling) -> int:
    bits = 0
    for e, (u, v) in enumerate(graph.edges):
        if zeta.label(u) < zeta.label(v):
            bits |= 1 << e
    return bits


def _check_labeling(graph: Graph, zeta) -> Labeling:
    if zeta is None:
        return Labeling.identity(graph.n)
    if zeta.n != graph.n:
        raise ValueError("labeling does not match the graph's vertex count")
    return zeta


@lru_cache(maxsize=4)
def _coloring_profile(graph: Graph) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(class-size composition, edge-direction bits) per proper coloring
    whose colors form an initial segment 1..j."""
    n, edges = graph.n, graph.edges
    if n == 0:
        return (((), 0),)
    adj = graph.adjacency_masks()
    colors = [0] * n
    out = []

    def rec(v: int, used_mask: int):
        if v == n:
            j = used_mask.bit_length() - 1
            if used_mask != ((1 << j) - 1) << 1:
                return
            counts = [0] * (j + 1)
            for c in colors:
                counts[c] += 1
            kbits = 0
            for e, (a, b) in enumerate(edges):
                if colors[a - 1] < colors[b - 1]:
                    kbits |= 1 << e
            out.append((tuple(counts[1:]), kbits))
            return
        forbidden = 0
        mask = adj[v]
        for u in range(v):
            if mask >> u & 1:
                forbidden |= 1 << colors[u]
        for c in range(1, n + 1):
            if forbidden >> c & 1:
                continue
            colors[v] = c
            rec(v + 1, used_mask | 1 << c)
        colors[v] = 0

    rec(0, 0)
    return tuple(out)


def cqf_monomial(graph: Graph, zeta: Labeling | None = None) -> QuasisymmetricM:
    """Monomial coordinates of the chromatic quasisymmetric function:
    the coefficient of M_alpha collects t^(ascents) over proper colorings
    surjective onto 1..len(alpha) with class sizes alpha."""
    zeta = _check_labeling(graph, zeta)
    m = graph.m
    zbits = _zeta_bits(graph, zeta)
    acc: dict[tuple[int, ...], list[int]] = {}
    for comp, kbits in _coloring_profile(graph):
        asc = m - (kbits ^ zbits).bit_count()
        arr = acc.get(comp)
        if arr is None:
            arr = acc[comp] = [0] * (m + 1)
        arr[asc] += 1
    return QuasisymmetricM(graph.n, {c: TPoly(a) for c, a in acc.items()})


def sink_minimal_increasing_labeling(o: Orientation) -> Labeling:
    """The canonical labeling that decreases along directed paths and
    gives the sinks the smallest labels.

    Sinks are labeled 1..s by vertex index; afterwards the smallest
    vertex whose out-neighbours are all labeled receives the next label.
    """
    if not o.is_acyclic():
        raise ValueError("orientation has a directed cycle")
    n = o.graph.n
    out = o.out_masks()
    labels = [0] * n
    labeled = 0
    next_label = 1
    for v in range(n):
        if out[v] == 0:
            labels[v] = next_label
            next_label += 1
            labeled |= 1 << v
    while next_label <= n:
        for v in range(n):
            if labeled >> v & 1:
                continue
            if out[v] & ~labeled:
                continue
            labels[v] = next_label
            next_label += 1
            labeled |= 1 << v
            break
    return Labeling(labels)


def dual_linear_extensions(o: Orientation, omega: Labeling) -> tuple[tuple[int, ...], ...]:
    """All vertex sequencings that respect reachability (tails before
    heads), read through omega as one-line permutations, sorted."""
    if not o.is_acyclic():
        raise ValueError("orientation has a directed cycle")
    if omega.n != o.graph.n:
        raise ValueError("labeling does not match the orientation's graph")
    n = o.graph.n
    prereq = [0] * n
    for u, v in o.arcs:
        prereq[v - 1] |= 1 << (u - 1)
    words: list[tuple[int, ...]] = []
    seq: list[int] = []

    def rec(placed: int):
        if len(seq) == n:
            words.append(tuple(omega.label(v) for v in seq))
            return
        for v in range(n):
            bit = 1 << v
            if placed & bit or prereq[v] & ~placed:
                continue
            seq.append(v + 1)
            rec(placed | bit)
            seq.pop()

    rec(0)
    return tuple(sorted(words))


@lru_cache(maxsize=4)
def _orientation_sinks(graph: Graph) -> tuple[tuple[int, int], ...]:
    """(direction bits, sinks) per acyclic orientation, read off the
    kernel's masks; no linear extensions are listed."""
    return tuple((mask, out.count(0)) for mask, out in acyclic_orientation_masks(graph))


@lru_cache(maxsize=4)
def _orientation_compositions(graph: Graph) -> tuple:
    """(direction bits, composition counts) per acyclic orientation.

    The composition counts record, for each linear extension of the
    orientation under its canonical labeling, the composition of the
    reflected descent set {i : n - i in Des}.
    """
    n = graph.n
    entries = []
    for o in acyclic_orientations(graph):
        omega = sink_minimal_increasing_labeling(o)
        comps: Counter = Counter()
        for word in dual_linear_extensions(o, omega):
            reflected = {n - i for i in descent_set(word)}
            comps[composition_from_descents(reflected, n)] += 1
        entries.append((o.mask, tuple(sorted(comps.items()))))
    return tuple(entries)


def cqf_fundamental_via_orientations(
    graph: Graph, zeta: Labeling | None = None
) -> QuasisymmetricF:
    """Fundamental coordinates assembled from acyclic orientations:
    each orientation contributes t^(descents) times the fundamental
    terms of its dual linear extensions."""
    zeta = _check_labeling(graph, zeta)
    m = graph.m
    zbits = _zeta_bits(graph, zeta)
    acc: dict[tuple[int, ...], list[int]] = {}
    for dirbits, comp_counts in _orientation_compositions(graph):
        des = (dirbits ^ zbits).bit_count()
        for comp, count in comp_counts:
            arr = acc.get(comp)
            if arr is None:
                arr = acc[comp] = [0] * (m + 1)
            arr[des] += count
    return QuasisymmetricF(graph.n, {c: TPoly(a) for c, a in acc.items()})


def hook_coefficient_via_orientations_t(
    graph: Graph, zeta: Labeling | None, k: int
) -> TPoly:
    """Binomial-weighted descent generating polynomial over acyclic
    orientations: sum of C(sinks-1, k-1) t^(descents)."""
    if not 1 <= k <= graph.n:
        raise ValueError(f"hook arm length must be in 1..{graph.n}, got {k}")
    zeta = _check_labeling(graph, zeta)
    zbits = _zeta_bits(graph, zeta)
    arr = [0] * (graph.m + 1)
    for dirbits, sinks_ in _orientation_sinks(graph):
        w = comb(sinks_ - 1, k - 1)
        if w:
            arr[(dirbits ^ zbits).bit_count()] += w
    return TPoly(arr)


@dataclass
class ESinkReport:
    """Per-sink-count comparison of orientation counts against sums of
    elementary coefficients over partitions of that length."""

    per_k: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(a == b for a, b in self.per_k.values())


def verify_e_sink_identity(graph: Graph) -> ESinkReport:
    """Compare a_k (acyclic orientations with k sinks) with the sum of
    e-coefficients b_lam over partitions lam of length k."""
    n = graph.n
    profile = sink_profile(graph)
    b = m_to_e(csf_monomial(graph))
    by_length = [0] * (n + 1)
    for lam, coeff in b.items():
        by_length[len(lam)] += coeff
    report = ESinkReport()
    for k in range(1, n + 1):
        report.per_k[k] = (profile[k], by_length[k])
    return report
