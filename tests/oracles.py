"""Independent brute-force oracles used to freeze expected values, and
the helpers that only the tests call.

The oracles are deliberately written from first principles (straight
enumeration, direct definitions, rational interpolation) so that they
stay independent of the library code paths they check.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial
from random import Random

from chromsym import (
    Graph,
    Orientation,
    Poset,
    QuasisymmetricF,
    QuasisymmetricM,
    SymmetricFunctionM,
    TPoly,
    acyclic_orientations,
    composition_from_descents,
    conjugate,
    csf_monomial,
    csf_schur,
    hook_partition,
    kostka,
    partition_of,
    partitions_of,
    sink_profile,
)
from chromsym.chromatic import _digits, _sink_polys
from chromsym.partitions import check_composition, check_partition, multiplicities
from chromsym.symfunc import _schur_h_table


def partitions_brute(n: int) -> set[tuple[int, ...]]:
    """All partitions of n as a set, via multiset enumeration."""
    out = set()

    def rec(rem, parts):
        if rem == 0:
            out.add(tuple(sorted(parts, reverse=True)))
            return
        for p in range(1, rem + 1):
            rec(rem - p, parts + [p])

    rec(n, [])
    if n == 0:
        out.add(())
    return out


def ssyt_count_brute(shape: tuple[int, ...], weight: tuple[int, ...]) -> int:
    """Count semi-standard fillings by direct cell-by-cell backtracking.

    Rows are stored bottom-up; rows weakly increase left to right and
    columns strictly increase upward.
    """
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    remaining = list(weight)
    grid = {}
    total = 0

    def rec(i):
        nonlocal total
        if i == len(cells):
            total += 1
            return
        r, c = cells[i]
        for value in range(1, len(weight) + 1):
            if remaining[value - 1] == 0:
                continue
            if c > 0 and grid[(r, c - 1)] > value:
                continue
            if r > 0 and grid[(r - 1, c)] >= value:
                continue
            grid[(r, c)] = value
            remaining[value - 1] -= 1
            rec(i + 1)
            remaining[value - 1] += 1
            del grid[(r, c)]

    rec(0)
    return total


# ---------------------------------------------------------------------------
# standard tableaux and permutations


class Tableau:
    """A semi-standard filling, rows bottom-up (French convention: rows[0]
    is the longest row and columns strictly increase upward), entries
    positive; immutable."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        shape = tuple(len(r) for r in rows)
        check_partition(shape)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if entry < 1:
                    raise ValueError(f"tableau entries must be positive, got {entry}")
                if j and row[j - 1] > entry:
                    raise ValueError(f"row {i + 1} is not weakly increasing: {row}")
                if i and j < len(rows[i - 1]) and rows[i - 1][j] >= entry:
                    raise ValueError(f"column {j + 1} is not strictly increasing upward")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.rows,))

    def __repr__(self):
        return f"Tableau(rows={self.rows!r})"

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_standard(self) -> bool:
        entries = sorted(e for row in self.rows for e in row)
        return entries == list(range(1, self.size + 1))


def standard_tableaux(lam) -> tuple[Tableau, ...]:
    """All standard tableaux of the given shape."""
    lam = check_partition(lam)
    n = sum(lam)
    rows: list[list[int]] = [[] for _ in lam]
    out: list[Tableau] = []

    def place(v: int):
        if v > n:
            out.append(Tableau(tuple(tuple(r) for r in rows)))
            return
        for i, row in enumerate(rows):
            # Cell (i, len(row)) is addable: row not full and supported below.
            if len(row) < lam[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(v)
                place(v + 1)
                row.pop()

    place(1)
    del place  # place refers to itself: break the cycle
    return tuple(out)


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Row word of a standard tableau: top row first, each left to right."""
    if not t.is_standard():
        raise ValueError("reading words are defined for standard tableaux")
    word: list[int] = []
    for row in reversed(t.rows):
        word.extend(row)
    return tuple(word)


def check_permutation(sigma) -> tuple[int, ...]:
    """Validate one-line notation for a permutation of 1..n."""
    word = tuple(int(x) for x in sigma)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
    return word


def descent_set(sigma) -> tuple[int, ...]:
    """Positions i with sigma(i) > sigma(i+1), 1-indexed, sorted."""
    word = check_permutation(sigma)
    return tuple(i for i in range(1, len(word)) if word[i - 1] > word[i])


def inverse_permutation(sigma) -> tuple[int, ...]:
    word = check_permutation(sigma)
    inv = [0] * len(word)
    for i, v in enumerate(word):
        inv[v - 1] = i + 1
    return tuple(inv)


def ides(sigma) -> tuple[int, ...]:
    """Descent set of the inverse permutation."""
    return descent_set(inverse_permutation(sigma))


def gessel_schur_F(lam) -> QuasisymmetricF:
    """Fundamental expansion of the Schur function s_lam (Gessel): one term
    per standard tableau of shape lam, indexed by the descent composition
    of the inverse of its reading word."""
    lam = check_partition(lam)
    n = sum(lam)
    counts: Counter = Counter()
    for t in standard_tableaux(lam):
        counts[composition_from_descents(ides(reading_word(t)), n)] += 1
    return QuasisymmetricF(n, {a: TPoly((c,)) for a, c in counts.items()})


def fundamental_monomials(descents, n: int, nvars: int) -> Counter:
    """Expand one fundamental quasisymmetric term over finitely many
    variables: weakly increasing index sequences, strict at descents."""
    out: Counter = Counter()
    desc = set(descents)

    def rec(j, prev, exponents):
        if j == n:
            out[tuple(exponents)] += 1
            return
        lo = prev + 1 if j in desc else prev
        for i in range(max(lo, 1), nvars + 1):
            exponents[i - 1] += 1
            rec(j + 1, i, exponents)
            exponents[i - 1] -= 1

    rec(0, 1, [0] * nvars)
    return out


def monomial_basis_monomials(lam, nvars: int) -> Counter:
    """Expand a monomial symmetric function over finitely many variables."""
    out: Counter = Counter()
    if len(lam) > nvars:
        return out
    padded = tuple(lam) + (0,) * (nvars - len(lam))
    for arrangement in set(permutations(padded)):
        out[arrangement] += 1
    return out


def specialize_w_k(f: SymmetricFunctionM, k: int) -> int:
    """Evaluate f at x_1 = ... = x_k = 1 and all other variables 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    for lam, c in f.coeffs.items():
        ell = len(lam)
        if ell > k:
            continue
        ways = factorial(k) // factorial(k - ell)
        for m in multiplicities(lam).values():
            ways //= factorial(m)
        total += c * ways
    return total


def chromatic_polynomial_value(graph: Graph, k: int) -> int:
    """Number of proper colorings with at most k colors, by specialization."""
    return specialize_w_k(csf_monomial(graph), k)


def chromatic_polynomial_by_colorings(graph: Graph, k: int) -> int:
    """Number of proper colorings with at most k colors, by enumeration:
    a coloring onto the colors 1..j, as the pruned recursion lists it,
    stands for the C(k, j) ways to choose its j colors.  No stable
    partition and no library kernel is used."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sum(count * comb(k, j) for j, count in enumerate(colorings_by_class_count(graph)))


@lru_cache(maxsize=64)
def colorings_by_class_count(graph: Graph) -> tuple[int, ...]:
    """Entry j counts the proper colorings onto the colors 1..j, for j in
    0..n, from ``coloring_profile_pruned``."""
    by_size = [0] * (graph.n + 1)
    for (comp, _), count in coloring_profile_pruned(graph):
        by_size[len(comp)] += count
    return tuple(by_size)


# ---------------------------------------------------------------------------
# the rows of the graph checks, one k at a time: the library reads each
# check's arithmetic from tables built once per vertex count


def sink_hook_coefficient(graph: Graph, k: int) -> int:
    """The sum over acyclic orientations of C(sinks - 1, k - 1)."""
    return sum(comb(j - 1, k - 1) * a for j, a in sink_profile(graph).counts)


def orientation_hook_rows(graph: Graph, zeta) -> list[tuple[TPoly, TPoly]]:
    """Entry k - 1 pairs two sums over the acyclic orientations that the
    mask scan finds, each term t^(descents under zeta), for k in 1..n: the
    number of the orientation's linear extensions whose reflected descent
    set under the sink-minimal labels is {k, ..., n - 1}, that is, whose
    composition is the hook (k, 1^(n-k)); and C(sinks - 1, k - 1)."""
    n, m = graph.n, graph.m
    if not n:
        return []
    walked = [[0] * (m + 1) for _ in range(n)]
    summed = [[0] * (m + 1) for _ in range(n)]
    for mask, out in acyclic_orientations_scan(graph):
        des = scan_descents(out, zeta)
        sinks = out.count(0)
        for k in range(1, sinks + 1):
            summed[k - 1][des] += comb(sinks - 1, k - 1)
        o = Orientation.from_mask(graph, mask)
        for word in extension_words(o, sink_minimal_labels(o)):
            reflected = {n - i for i in descent_set(word)}
            k = min(reflected, default=n)
            if reflected == set(range(k, n)):
                walked[k - 1][des] += 1
    return [(TPoly(a), TPoly(b)) for a, b in zip(walked, summed)]


def coloring_hook_polys(graph: Graph, zeta) -> list[TPoly]:
    """Entry k - 1 is the coefficient of F_(k,1^(n-k)) in the fundamental
    expansion of X_G(x, t), for k in 1..n, by signed refinement of the
    monomial coordinates that the pruned coloring recursion counts."""
    n = graph.n
    label = zeta.labels if zeta is not None else range(1, n + 1)
    acc: dict[tuple[int, ...], list[int]] = {}
    for (comp, bits), count in coloring_profile_pruned(graph):
        # bit e: edge e runs from its lower color to its higher one, along
        # its canonical (low -> high vertex) direction
        asc = sum((bits >> e & 1) == (label[a - 1] < label[b - 1]) for e, (a, b) in enumerate(graph.edges))
        acc.setdefault(comp, [0] * (graph.m + 1))[asc] += count
    converted = qsym_M_to_F_by_refinement(QuasisymmetricM(n, {comp: TPoly(c) for comp, c in acc.items()}))
    return [hook_coefficient_of_F(converted, k) for k in range(1, n + 1)]


def s_to_e_by_conjugates(n: int, schur: dict) -> dict[tuple[int, ...], int]:
    """Elementary coefficients of sum c_lam s_lam, each s_lam read from the
    Jacobi-Trudi table at its conjugate, in ascending canonical order."""
    table = _schur_h_table(n)
    acc: dict[tuple[int, ...], int] = {}
    for lam, c in schur.items():
        for nu, a in table[conjugate(lam)]:
            acc[nu] = acc.get(nu, 0) + c * a
    return {nu: acc[nu] for nu in reversed(partitions_of(n)) if acc.get(nu)}


def hook_1_rows(graph: Graph) -> list[tuple]:
    schur = csf_schur(graph)
    monomial = csf_monomial(graph)
    rows = []
    for k in range(1, graph.n + 1):
        hook = hook_partition(graph.n, k)
        others = sum(c * kostka(lam, hook) for lam, c in schur.items() if lam[0] >= k and lam != hook)
        rows.append((k, schur.get(hook, 0), sink_hook_coefficient(graph, k), monomial.coefficient(hook) - others))
    return rows


def hook_t_rows(graph: Graph, zeta) -> list[tuple]:
    """Each value from an oracle that shares no kernel with the library's
    reader: the walk's value from the extension words of the scanned
    orientations, the sink sum from the same scan, and the coloring route's
    from the pruned coloring recursion."""
    rows = zip(orientation_hook_rows(graph, zeta), coloring_hook_polys(graph, zeta))
    return [(k, walked, summed, colored) for k, ((walked, summed), colored) in enumerate(rows, 1)]


def e_sink_rows(graph: Graph) -> list[tuple]:
    by_length = [0] * (graph.n + 1)
    for lam, c in s_to_e_by_conjugates(graph.n, csf_schur(graph)).items():
        by_length[len(lam)] += c
    return [(k, sink_profile(graph)[k], by_length[k]) for k in range(1, graph.n + 1)]


def chrompoly_rows(graph: Graph) -> list[tuple]:
    monomial = csf_monomial(graph)
    return [
        (k, specialize_w_k(monomial, k), chromatic_polynomial_by_colorings(graph, k)) for k in range(graph.n + 1)
    ]


def count_colorings_brute(graph: Graph, k: int) -> int:
    """Proper colorings with at most k colors, by direct recursion."""
    if k == 0:
        return 0 if graph.n else 1
    nbrs: dict[int, list[int]] = {v: [] for v in range(1, graph.n + 1)}
    for u, v in graph.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colors = [0] * (graph.n + 1)

    def rec(v):
        if v > graph.n:
            return 1
        total = 0
        for c in range(1, k + 1):
            if all(colors[u] != c for u in nbrs[v] if u < v):
                colors[v] = c
                total += rec(v + 1)
        colors[v] = 0
        return total

    return rec(1)


def proper_colorings_bounded(graph: Graph, k: int):
    """Stream of proper colorings V -> {1..k}, as tuples indexed by vertex."""
    if k < 1:
        raise ValueError("at least one color is required")
    n = graph.n
    adj = graph.adjacency_masks()
    colors = [0] * n

    def rec(v: int):
        if v == n:
            yield tuple(colors)
            return
        forbidden = set()
        mask = adj[v]
        for u in range(v):
            if mask >> u & 1:
                forbidden.add(colors[u])
        for c in range(1, k + 1):
            if c not in forbidden:
                colors[v] = c
                yield from rec(v + 1)
        colors[v] = 0

    yield from rec(0)


def csf_monomial_by_colorings(graph: Graph) -> SymmetricFunctionM:
    """Monomial coordinates by direct summation over proper colorings with
    colors in 1..n, reading off monomial exponents."""
    n = graph.n
    acc: Counter = Counter()
    if n == 0:
        return SymmetricFunctionM(0, {(): 1})
    for kappa in proper_colorings_bounded(graph, n):
        counts = [0] * (n + 1)
        for c in kappa:
            counts[c] += 1
        vec = counts[1:]
        while vec and vec[-1] == 0:
            vec.pop()
        if all(vec[i] >= vec[i + 1] for i in range(len(vec) - 1)) and all(vec):
            acc[tuple(vec)] += 1
    return SymmetricFunctionM(n, acc)


def coloring_profile_unpruned(graph: Graph) -> list[tuple[tuple[int, ...], int]]:
    """(class-size composition, edge-direction bits) per proper coloring
    whose colors form an initial segment 1..j, found by trying every color
    1..n at every vertex and keeping the colorings with no gap.  Bit e is
    set when edge e runs from the lower color to the higher one."""
    n, edges = graph.n, graph.edges
    if n == 0:
        return [((), 0)]
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
    return out


def coloring_profile_pruned(graph: Graph) -> tuple[tuple[tuple[tuple[int, ...], int], int], ...]:
    """((class-size composition, edge-direction bits), colorings) as the
    coloring kernel counts them, one entry per distinct pair, found by
    visiting every proper coloring onto an initial segment 1..j.

    Vertices are colored in index order.  With colors 1..top in play and
    gaps of them still unused, a branch lives only while the vertices left
    can fill every gap, so a used color at or below top is skipped once
    they cannot, and no color above top + 1 + (vertices after this one) -
    gaps is tried.
    """
    n = graph.n
    if n == 0:
        return ((((), 0), 1),)
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(graph.edges):
        earlier[b - 1].append((a - 1, 1 << e))  # (lower neighbour, edge bit)
    colors = [0] * n
    sizes = [0] * (n + 1)  # sizes[c]: vertices colored c so far
    acc: dict[tuple[tuple[int, ...], int], int] = {}

    def rec(v: int, top: int, gaps: int, bits: int):
        rest = n - v - 1
        for c in range(1, top + 2 + rest - gaps):
            if c > top:
                new_top, new_gaps = c, gaps + c - top - 1
            elif sizes[c]:
                if gaps > rest:
                    continue
                new_top, new_gaps = top, gaps
            else:
                new_top, new_gaps = top, gaps - 1
            add = 0
            for u, ebit in earlier[v]:
                cu = colors[u]
                if cu == c:
                    break
                if cu < c:
                    add |= ebit
            else:
                sizes[c] += 1
                if rest:
                    colors[v] = c
                    rec(v + 1, new_top, new_gaps, bits | add)
                else:  # v is the last vertex and no gap is left
                    key = (tuple(sizes[1 : new_top + 1]), bits | add)
                    acc[key] = acc.get(key, 0) + 1
                sizes[c] -= 1

    rec(0, 0, 0, 0)
    return tuple(acc.items())


def compositions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All compositions of n in canonical (descending) order, by their
    first part."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(n, 0, -1) for rest in compositions_of(n - first))


def descents_from_composition(alpha) -> tuple[int, ...]:
    """Proper partial sums of a composition, as a sorted descent set."""
    alpha = check_composition(alpha)
    out = []
    acc = 0
    for part in alpha[:-1]:
        acc += part
        out.append(acc)
    return tuple(out)


def hook_coefficient_of_F(f, k: int) -> TPoly:
    """Coefficient at the hook composition (k, 1, ..., 1)."""
    return f.coefficient(hook_partition(f.degree, k))


def _refinements(alpha, n: int):
    """(beta, number of descents beta adds) for every composition beta of
    n refining alpha, that is, whose descent set contains alpha's."""
    base = set(descents_from_composition(alpha))
    others = [i for i in range(1, n) if i not in base]
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            yield composition_from_descents(base.union(extra), n), r


def qsym_M_to_F_by_refinement(f) -> QuasisymmetricF:
    """Fundamental coordinates of f, by signed refinement inversion: M_beta
    spreads over every alpha refining beta with sign (-1)^(added descents)."""
    out: dict[tuple[int, ...], TPoly] = {}
    for beta, poly in f.coeffs.items():
        for alpha, added in _refinements(beta, f.degree):
            out[alpha] = out.get(alpha, TPoly()) + (-1) ** added * poly
    return QuasisymmetricF(f.degree, out)


def qsym_F_to_M(f) -> QuasisymmetricM:
    """Monomial coordinates of f, by the refinement sum: F_alpha is the sum
    of M_beta over every beta refining alpha.  The unsigned twin of
    qsym_M_to_F_by_refinement."""
    out: dict[tuple[int, ...], TPoly] = {}
    for alpha, poly in f.coeffs.items():
        for beta, _ in _refinements(alpha, f.degree):
            out[beta] = out.get(beta, TPoly()) + poly
    return QuasisymmetricM(f.degree, out)


def sink_minimal_labels(o) -> tuple[int, ...]:
    """Sinks take 1..s by vertex index; then the smallest vertex whose
    out-neighbours are all labeled takes the next label."""
    n = o.graph.n
    out = o.out_masks()
    labels = [0] * n
    for v in range(n):
        if out[v] == 0:
            labels[v] = max(labels) + 1
    while 0 in labels:
        done = {v for v in range(n) if labels[v]}
        v = min(v for v in range(n) if not labels[v] and all(w in done for w in range(n) if out[v] >> w & 1))
        labels[v] = max(labels) + 1
    return tuple(labels)


def extension_words(o, labels) -> list[tuple[int, ...]]:
    """Every vertex order with each arc's tail before its head, read
    through labels, by placing one vertex whose tails are all placed at a
    time."""
    n = o.graph.n
    tails: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in o.arcs:
        tails[v].add(u)
    words = []
    order: list[int] = []

    def rec():
        if len(order) == n:
            words.append(tuple(labels[v - 1] for v in order))
            return
        for v in range(1, n + 1):
            if v not in order and tails[v] <= set(order):
                order.append(v)
                rec()
                order.pop()

    rec()
    return words


def orientation_compositions_by_words(graph: Graph) -> tuple:
    """(direction bits, sorted composition counts) per acyclic orientation:
    each linear extension under the sink-minimal labeling contributes the
    composition of its reflected descent set {n - i : i in Des}."""
    n = graph.n
    entries = []
    for o in acyclic_orientations(graph):
        labels = sink_minimal_labels(o)
        comps: Counter = Counter()
        for word in extension_words(o, labels):
            comps[composition_from_descents({n - i for i in descent_set(word)}, n)] += 1
        entries.append((o.mask, tuple(sorted(comps.items()))))
    return tuple(entries)


def count_p_tableaux_hook_brute(poset, k: int, column_ok) -> int:
    """Hook fillings by permutation: the bottom row w[:k] must be a chain
    read left to right, and column_ok(lower, upper) must hold at every
    step up the column w[k:] stacked above the row's first cell."""
    total = 0
    for w in permutations(range(1, poset.n + 1)):
        row, column = w[:k], (w[0],) + w[k:]
        if all(less(poset, a, b) for a, b in zip(row, row[1:])) and all(
            column_ok(lower, upper) for lower, upper in zip(column, column[1:])
        ):
            total += 1
    return total


def hook_tableau_counts_per_poset(poset) -> list[int]:
    """Entry k counts the hook fillings of arm length k, for k in 0..n, by
    a walk over the chains whose column fillings are memoized per poset on
    (bottom cell, elements left), a memo dropped when the walk ends.  This
    was the library's kernel before its memo became a store shared across
    posets; it keeps no state between calls."""
    n = poset.n
    above = poset.above
    below = [0] * n  # below[x]: the elements strictly less than x
    for a in range(n):
        for b in range(n):
            if above[a] >> b & 1:
                below[b] |= 1 << a
    memo: dict[int, int] = {}

    def legs(lower: int, remaining: int) -> int:
        if not remaining:
            return 1
        key = remaining * n + lower
        got = memo.get(key)
        if got is None:
            got = 0
            allowed = remaining & ~below[lower]
            while allowed:
                low = allowed & -allowed
                got += legs(low.bit_length() - 1, remaining ^ low)
                allowed ^= low
            memo[key] = got
        return got

    full = (1 << n) - 1
    counts = [0] * (n + 1)

    def chains(bottom: int, top: int, used: int, length: int):
        counts[length] += legs(bottom, full ^ used)
        ups = above[top]
        while ups:
            low = ups & -ups
            chains(bottom, low.bit_length() - 1, used | low, length + 1)
            ups ^= low

    for bottom in range(n):
        chains(bottom, bottom, 1 << bottom, 1)
    return counts


def interpolate_at(points: list[tuple[int, int]], x: int) -> Fraction:
    """Exact Lagrange interpolation through integer points."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def all_graphs(n: int):
    """Every labeled graph on vertices 1..n, by edge-subset mask order."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def all_posets_scan(n: int):
    """Every partial order on {1..n}: each of the 3^C(n,2) ways to direct
    or leave out the pairs, kept when it is transitive."""
    pairs = list(combinations(range(n), 2))
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        above = [0] * n
        for (i, j), state in zip(pairs, assignment):
            if state == 1:
                above[i] |= 1 << j
            elif state == 2:
                above[j] |= 1 << i
        try:
            poset = Poset(n, above)
        except ValueError:
            continue
        yield poset


def _peels_away(out: list[int]) -> bool:
    """True iff deleting sinks over and over deletes every vertex."""
    alive = (1 << len(out)) - 1
    while alive:
        sinks = 0
        for v, heads in enumerate(out):
            if alive >> v & 1 and not heads & alive:
                sinks |= 1 << v
        if not sinks:
            return False
        alive &= ~sinks
    return True


def closure_warshall(masks) -> list[int] | None:
    """The transitive closure of the relation masks (bit j of masks[i]
    relates i to j) by Warshall's algorithm, or None when it relates some
    element to itself, that is, when the relation has a cycle."""
    n = len(masks)
    reach = list(masks)
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    if any(reach[i] >> i & 1 for i in range(n)):
        return None
    return reach


def seeded_relations(count: int, seed: int, sizes=range(8, 13)):
    """count random relations as lists of masks, each on a number of
    elements drawn from sizes and with its own density.  The even-numbered
    ones relate only lower to higher indices, so they are acyclic; the
    others may relate any pair, an element to itself included, and are
    mostly cyclic."""
    rng = Random(seed)
    for i in range(count):
        n = rng.choice(sizes)
        density = rng.uniform(0.02, 0.3)
        masks = [0] * n
        for a in range(n):
            for b in range(a + 1 if i % 2 == 0 else 0, n):
                if rng.random() < density:
                    masks[a] |= 1 << b
        yield masks


def _arc_masks(n: int, edges, bits: int) -> list[int]:
    """Out-neighbour masks of the edges oriented by bits (bit i set: edge i
    points from its lower to its higher vertex)."""
    out = [0] * n
    for i, (u, v) in enumerate(edges):
        if bits >> i & 1:
            out[u - 1] |= 1 << (v - 1)
        else:
            out[v - 1] |= 1 << (u - 1)
    return out


def acyclic_orientations_scan(graph: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """(mask, out-neighbour masks) of every acyclic orientation, found by
    trying all 2^|E| direction masks in ascending order.  Bit e set means
    edge e points from its lower to its higher vertex."""
    n, edges = graph.n, graph.edges
    # The masks of the low and high halves of the edges are tabulated once,
    # so each direction mask costs one merge of two tables.
    half = len(edges) // 2
    low = [_arc_masks(n, edges[:half], bits) for bits in range(1 << half)]
    high = [_arc_masks(n, edges[half:], bits) for bits in range(1 << len(edges) - half)]
    found = []
    for hi_bits, hi_out in enumerate(high):
        for lo_bits, lo_out in enumerate(low):
            out = [a | b for a, b in zip(lo_out, hi_out)]
            if _peels_away(out):
                found.append((hi_bits << half | lo_bits, tuple(out)))
    return found


def sink_histogram(oriented) -> tuple[tuple[int, int], ...]:
    """(sinks, orientations with that many sinks), sinks ascending, over
    (mask, out-neighbour masks) pairs."""
    return tuple(sorted(Counter(out.count(0) for _, out in oriented).items()))


def sink_counts_scan(graph: Graph) -> tuple[tuple[int, int], ...]:
    """The sink histogram of the mask scan."""
    return sink_histogram(acyclic_orientations_scan(graph))


def scan_descents(out, zeta) -> int:
    """The arcs u -> v of the out-neighbour masks out with v labeled below
    u by zeta, or by index when zeta is None."""
    n = len(out)
    label = zeta.labels if zeta is not None else range(1, n + 1)
    return sum(label[v] < label[u] for u in range(n) for v in range(n) if out[u] >> v & 1)


def sink_descent_counts_scan(graph: Graph, zeta) -> tuple[tuple[tuple[int, int], int], ...]:
    """((sinks, descents), orientations) over the mask scan, ascending; a
    descent is an arc u -> v with v labeled below u by zeta, or by index
    when zeta is None."""
    counts: Counter = Counter()
    for _, out in acyclic_orientations_scan(graph):
        counts[out.count(0), scan_descents(out, zeta)] += 1
    return tuple(sorted(counts.items()))


def decode_type(code: int, n: int) -> tuple[int, ...]:
    """The partition of weight at most n coded as the sum over its parts k
    of (n + 1)^(k - 1), read off one part size at a time."""
    base = n + 1
    parts: list[int] = []
    for k in range(n, 0, -1):
        parts += [k] * (code // base ** (k - 1) % base)
    return tuple(parts)


def multiplicity_factorial_product(lam) -> int:
    """The product of the factorials of the part multiplicities of lam."""
    out = 1
    for mult in multiplicities(lam).values():
        out *= factorial(mult)
    return out


def hook_slot(sums: int) -> int:
    """2 alpha_1 + (len(alpha) mod 2) for the composition alpha whose
    partial sums p are the bits p - 1 of sums, built as a composition."""
    partial = [p + 1 for p in range(sums.bit_length()) if sums >> p & 1]
    alpha = [b - a for a, b in zip([0] + partial, partial)]
    return 2 * (alpha[0] if alpha else 0) + len(alpha) % 2


def sink_counts(graph: Graph, below: tuple[int, ...]) -> tuple[tuple[tuple[int, int], int], ...]:
    """((sinks, descents), orientations) over the acyclic orientations, one
    entry per distinct pair, ascending; a descent is an arc u -> v with v in
    below[u], as ``_below`` gives it.  Decoded from the sink kernel,
    ``_sink_polys``: the histogram is P(y - 1; t), by Taylor shift, and
    every digit of its packed ints is decoded."""
    width, p = _sink_polys(graph, below)
    p = list(p)
    for i in range(graph.n):
        for j in range(graph.n - 1, i - 1, -1):
            p[j] -= p[j + 1]
    return tuple(((s, d), c) for s, h in enumerate(p) for d, c in enumerate(_digits(h, width)) if c)


def seeded_graphs(count: int, seed: int, max_edges: int = 13, sizes=(6, 7, 8)):
    """count random labeled graphs whose vertex counts cycle through sizes,
    with at most max_edges edges, so that the mask scan stays cheap."""
    rng = Random(seed)
    for i in range(count):
        n = sizes[i % len(sizes)]
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        yield Graph(n, rng.sample(pairs, rng.randint(0, max_edges)))


def stable_partitions_recursive(graph: Graph) -> dict[tuple[int, ...], int]:
    """Stable partitions counted by sorted block-size type, visiting every
    partition: each vertex in turn joins an open block it has no edge to,
    or opens a new one."""
    n = graph.n
    adj = graph.adjacency_masks()
    counts: dict[tuple[int, ...], int] = {}
    block_masks: list[int] = []
    block_sizes: list[int] = []

    def rec(v: int):
        if v == n:
            key = tuple(sorted(block_sizes, reverse=True))
            counts[key] = counts.get(key, 0) + 1
            return
        bit = 1 << v
        a = adj[v]
        for i in range(len(block_masks)):
            if block_masks[i] & a == 0:
                block_masks[i] |= bit
                block_sizes[i] += 1
                rec(v + 1)
                block_masks[i] &= ~bit
                block_sizes[i] -= 1
        block_masks.append(bit)
        block_sizes.append(1)
        rec(v + 1)
        block_masks.pop()
        block_sizes.pop()

    if n:
        rec(0)
    else:
        counts[()] = 1
    return counts


@lru_cache(maxsize=None)
def e_to_m_matrix(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Coefficient of m_lam in e_mu, for all partitions of n, from
    e_mu = sum_nu K(nu, mu) s_nu' and s_nu = sum_lam K(nu, lam) m_lam."""
    parts = partitions_of(n)
    return {
        mu: {lam: sum(kostka(nu, mu) * kostka(conjugate(nu), lam) for nu in parts) for lam in parts}
        for mu in parts
    }


def elementary_m_expansion(e_coeffs, degree: int) -> SymmetricFunctionM:
    """Re-expand an elementary coefficient vector into monomial coordinates."""
    matrix = e_to_m_matrix(degree)
    acc: Counter = Counter()
    for mu, b in dict(e_coeffs).items():
        for lam, c in matrix[tuple(mu)].items():
            acc[lam] += b * c
    return SymmetricFunctionM(degree, acc)


def m_to_e_by_matrix(f: SymmetricFunctionM) -> dict[tuple[int, ...], int]:
    """Elementary coefficients of f from e_to_m_matrix: the coefficient of
    m_lam' in e_mu is 1 at lam = mu and 0 below mu, so the system is solved
    by scanning mu upward in the canonical order."""
    matrix = e_to_m_matrix(f.degree)
    out: dict[tuple[int, ...], int] = {}
    for mu in reversed(partitions_of(f.degree)):
        pivot = conjugate(mu)
        out[mu] = f.coefficient(pivot) - sum(matrix[nu][pivot] * b for nu, b in out.items())
    return {mu: b for mu, b in out.items() if b}


def _kostka_solve(rhs, order, entry) -> dict[tuple[int, ...], int]:
    """x with rhs(lam) = x[lam] + sum of entry(mu, lam) * x[mu] over the mu
    before lam in order, solved one lam at a time."""
    out: dict[tuple[int, ...], int] = {}
    for lam in order:
        acc = rhs(lam)
        for mu, x in out.items():
            if x:
                acc -= entry(mu, lam) * x
        out[lam] = acc
    return {lam: x for lam, x in out.items() if x}


def m_to_s_by_kostka(f: SymmetricFunctionM) -> dict[tuple[int, ...], int]:
    """Schur coefficients of f, in canonical order, by the unitriangular
    Kostka solve: b_lam = sum over mu of K(mu, lam) c_mu, with K(lam, lam) = 1
    and K(mu, lam) = 0 unless lam <= mu in dominance."""
    return _kostka_solve(f.coefficient, partitions_of(f.degree), kostka)


def m_to_e_by_kostka(f: SymmetricFunctionM) -> dict[tuple[int, ...], int]:
    """Elementary coefficients of f, in ascending canonical order, solved
    from its Schur coefficients: since e_mu = sum_lam K(lam, mu) s_lam', the
    Schur coefficients c of f = sum_mu b_mu e_mu satisfy
    c_lam' = sum_mu K(lam, mu) b_mu, unitriangular when lam scans upward."""
    schur = m_to_s_by_kostka(f)
    return _kostka_solve(
        lambda lam: schur.get(conjugate(lam), 0),
        reversed(partitions_of(f.degree)),
        lambda mu, lam: kostka(lam, mu),
    )


def ascents(graph: Graph, kappa, zeta) -> int:
    """Edges increasing in both the labeling and the coloring."""
    kappa = tuple(kappa)
    if len(kappa) != graph.n or zeta.n != graph.n:
        raise ValueError("coloring and labeling must match the graph")
    count = 0
    for u, v in graph.edges:
        cu, cv = kappa[u - 1], kappa[v - 1]
        if cu == cv:
            raise ValueError(f"coloring is not proper on edge ({u},{v})")
        if (zeta.label(u) < zeta.label(v)) == (cu < cv):
            count += 1
    return count


def is_proper_coloring(graph: Graph, kappa) -> bool:
    kappa = tuple(kappa)
    return all(kappa[u - 1] != kappa[v - 1] for u, v in graph.edges)


def dominance_leq(lam, mu) -> bool:
    """Whether lam <= mu in dominance order (prefix-sum comparison)."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance order compares partitions of equal weight")
    a = b = 0
    for j in range(max(len(lam), len(mu))):
        a += lam[j] if j < len(lam) else 0
        b += mu[j] if j < len(mu) else 0
        if a > b:
            return False
    return True


def schur_m_expansion(schur_coeffs, degree: int) -> SymmetricFunctionM:
    """Re-expand a Schur coefficient vector into monomial coordinates:
    s_mu = sum over lam of K(mu, lam) m_lam."""
    acc: Counter = Counter()
    for mu, c in dict(schur_coeffs).items():
        for lam in partitions_of(degree):
            acc[lam] += c * kostka(mu, lam)
    return SymmetricFunctionM(degree, acc)


def monomial_to_quasi(f: SymmetricFunctionM) -> QuasisymmetricM:
    """Reinterpret m-coordinates quasisymmetrically: m_lam spreads over
    the distinct rearrangements of lam."""
    out = {}
    for lam, c in f.coeffs.items():
        for alpha in set(permutations(lam)):
            out[alpha] = TPoly((c,))
    return QuasisymmetricM(f.degree, out)


def is_symmetric_by_permutations(f: QuasisymmetricM) -> bool:
    """Whether every rearrangement of every stored composition carries the
    same coefficient, read at each of the distinct permutations."""
    for lam in {partition_of(alpha) for alpha in f.coeffs}:
        values = {f.coefficient(alpha) for alpha in set(permutations(lam))}
        if len(values) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Closed forms for graph families under the natural labeling, written with
# no chromsym kernel.  A polynomial in t is a tuple of its coefficients, low
# degree first, with no trailing zeros; an e-expansion maps a partition,
# in descending parts, to its polynomial, with e_0 = 1.


def _t_trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _t_add(p, q) -> tuple[int, ...]:
    longer, shorter = (p, q) if len(p) >= len(q) else (q, p)
    return _t_trim(a + (shorter[i] if i < len(shorter) else 0) for i, a in enumerate(longer))


def _t_mul(p, q) -> tuple[int, ...]:
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _t_trim(out)


def t_integer(m: int) -> tuple[int, ...]:
    """[m]_t = 1 + t + ... + t^(m-1)."""
    return (1,) * m


def _e_times(i: int, expansion: dict, coeff) -> dict:
    """coeff · e_i · expansion, with e_0 = 1."""
    out = {}
    for lam, c in expansion.items():
        mu = tuple(sorted(lam + (i,), reverse=True)) if i else lam
        out[mu] = _t_mul(coeff, c)
    return out


def _e_add(total: dict, part: dict) -> None:
    for lam, c in part.items():
        total[lam] = _t_add(total.get(lam, ()), c)
        if not total[lam]:
            del total[lam]


def path_e_expansion(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """X_{P_n}(x,t) = sum_{j=0..n} e_j W_{n-j}, with W_0 = 1 and
    W_m = sum_{i=2..m} t[i-1]_t e_i W_{m-i} (Shareshian-Wachs 2016; at
    t = 1, Stanley 1995)."""
    w = [{(): (1,)}]
    for m in range(1, n + 1):
        total: dict = {}
        for i in range(2, m + 1):
            _e_add(total, _e_times(i, w[m - i], (0,) + t_integer(i - 1)))
        w.append(total)
    x: dict = {}
    for j in range(n + 1):
        _e_add(x, _e_times(j, w[n - j], (1,)))
    return x


def complete_e_expansion(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """X_{K_n}(x,t) = [n]_t! e_n."""
    factorial = (1,)
    for m in range(1, n + 1):
        factorial = _t_mul(factorial, t_integer(m))
    return {(n,) if n else (): factorial}


def edgeless_e_expansion(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """X = e_1^n."""
    return {(1,) * n: (1,)}


def hooks_of_e_expansion(expansion: dict, n: int) -> list[tuple[int, ...]]:
    """Entry k - 1 is the coefficient of the Schur hook s_(k,1^(n-k)) in the
    e-expansion, for k in 1..n, from [s_(k,1^(n-k))] e_lam = C(len(lam)-1, k-1)."""
    hooks = [()] * n
    for lam, c in expansion.items():
        for k in range(1, len(lam) + 1):
            hooks[k - 1] = _t_add(hooks[k - 1], _t_mul((comb(len(lam) - 1, k - 1),), c))
    return hooks


# ---------------------------------------------------------------------------
# Readings of library values that only the tests use.


def reverse(o: Orientation) -> Orientation:
    """The orientation with every arc turned round."""
    return Orientation(o.graph, tuple((v, u) for u, v in o.arcs))


def less(poset: Poset, a: int, b: int) -> bool:
    """Whether a < b in poset, elements by number."""
    return bool(poset.above[a - 1] >> (b - 1) & 1)


def incomparable(poset: Poset, a: int, b: int) -> bool:
    return a != b and not less(poset, a, b) and not less(poset, b, a)


def t_power(k: int, coeff: int = 1) -> TPoly:
    """coeff · t^k."""
    if k < 0:
        raise ValueError("powers of t must be nonnegative")
    return TPoly((0,) * k + (coeff,))


def degree(p: TPoly) -> int:
    """The degree of p, with -1 for the zero polynomial."""
    return len(p.coeffs) - 1


def is_zero(p: TPoly) -> bool:
    return not p.coeffs
