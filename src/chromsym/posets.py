"""Finite posets, incomparability graphs, and hook-shape poset tableaux.

A poset on {1..n} is stored as strict-order bitmasks.  Hook-shape
tableaux are bijective fillings whose bottom row strictly increases in
the poset order at consecutive cells and whose column never strictly
increases going up.  The mirror reading of the column rule is told apart
only by the counting identity itself; the test suite keeps it as an
oracle and shows that it fails.

The fillings of every arm length are counted in one walk over the chains
of the poset.  The column fillings above each chain's bottom cell depend
only on that cell and the order restricted to the elements left with it,
so they are stored under the key ``graphs._shared_states`` gives that
sub-order, as the graph kernels store theirs; the cost follows the chains
and the distinct sub-orders rather than the n! orders of the elements.
The Schur side of the identity is computed once per distinct
incomparability relation, held by ``graphs._relation_bits`` as one
integer, and shared by the posets that have it; the graph is built only
the first time.
"""

from __future__ import annotations

from functools import lru_cache

from .chromatic import csf_schur  # noqa: F401  (perfbench/shim.py wraps this binding)
from .chromatic import hook_coefficients_via_schur
from .graphs import (
    Graph,
    _as_int,
    _as_int_pair,
    _check_int_pairs,
    _closure,
    _graph_of,
    _load_json_object,
    _read_input,
    _relation_bits,
    _shared_states,
    _transpose,
)


class Poset:
    """A partial order on {1..n}; above[i] is the bitmask of elements
    strictly greater than i+1."""

    __slots__ = ("n", "above", "_below")

    def __init__(self, n: int, above):
        n = _as_int(n, "element count")
        above = tuple(_as_int(a, "bitmask") for a in above)
        if n < 0 or len(above) != n:
            raise ValueError("above must give one bitmask per element")
        full = (1 << n) - 1
        for i, mask in enumerate(above):
            if not 0 <= mask <= full:
                raise ValueError(f"bitmask for element {i + 1} is out of range")
            if mask >> i & 1:
                raise ValueError(f"element {i + 1} compares above itself")
        closed = _closure(above)
        if closed is None:
            raise ValueError("relation has a cycle: some elements compare both ways")
        if tuple(closed) != above:
            raise ValueError("relation is not transitively closed")
        self.n = n
        self.above = above
        self._below = None

    @classmethod
    def _trusted(cls, n: int, above: tuple[int, ...]) -> "Poset":
        """A poset from above-masks closed and acyclic by construction; nothing is checked."""
        p = object.__new__(cls)
        p.n, p.above, p._below = n, above, None
        return p

    @classmethod
    def from_covers(cls, n: int, covers) -> "Poset":
        """Build from cover pairs [a, b] meaning a < b, closing transitively."""
        n = _as_int(n, "element count")
        if n < 0:
            raise ValueError("element count must be nonnegative")
        direct = [0] * n
        for pair in covers:
            a, b = _as_int_pair(pair, "cover", "cover element")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"cover ({a},{b}) out of range 1..{n}")
            if a == b:
                raise ValueError(f"cover ({a},{b}) relates an element to itself")
            direct[a - 1] |= 1 << (b - 1)
        above = _closure(direct)
        if above is None:
            raise ValueError("cover relations contain a cycle")
        return cls._trusted(n, tuple(above))

    def below_masks(self) -> tuple[int, ...]:
        """Entry i is the bitmask of elements strictly less than i+1; built once."""
        if self._below is None:
            self._below = tuple(_transpose(self.above))
        return self._below

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self.above == other.above

    def __hash__(self):
        return hash((self.n, self.above))

    def __repr__(self):
        pairs = [
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(self.n)
            if self.above[i] >> j & 1
        ]
        return f"Poset({self.n}, relations={pairs!r})"


def all_posets(n: int):
    """Every partial order on {1..n}, each once, the antichain first."""
    for above in _poset_masks(n):
        yield Poset._trusted(n, above)


def _closed_sets(m: int, up) -> list[int]:
    """The subsets S of {0..m-1} with up[i] within S for every i in S, in
    increasing order: the up-sets when up holds the strict upper sets, the
    down-sets when it holds the strict lower ones."""
    reach = [0] * (1 << m)  # reach[S]: the union of up[i] over i in S
    closed = [0]
    for s in range(1, 1 << m):
        low = s & -s
        reach[s] = reach[s ^ low] | up[low.bit_length() - 1]
        if not reach[s] & ~s:
            closed.append(s)
    return closed


def _poset_masks(n: int):
    """The above-masks of every partial order on {0..n-1}.  Each order on
    n - 1 elements is extended by a top index, placed above a down-set D
    and below an up-set U whose elements all lie above every element of D;
    every order on n elements restricts to exactly one such triple."""
    if n == 0:
        yield ()
        return
    m, new = n - 1, 1 << (n - 1)
    for above in _poset_masks(m):
        ups = _closed_sets(m, above)
        for down in _closed_sets(m, _transpose(above)):
            bound = new - 1  # the common upper bounds of down
            grown = list(above)
            for i in range(m):
                if down >> i & 1:
                    bound &= above[i]
                    grown[i] |= new
            grown = tuple(grown)
            for up in ups:
                if not up & ~bound:
                    yield grown + (up,)


def incomparability_graph(poset: Poset) -> Graph:
    """Edges between incomparable pairs."""
    return _graph_of(poset.n, _incomparability_bits(poset))


def _incomparability_bits(poset: Poset) -> int:
    """The incomparability relation, with each element incomparable to
    itself, as ``_relation_bits`` holds it; it tells the element counts
    apart."""
    full = (1 << poset.n) - 1
    return _relation_bits([full ^ (up | down) for up, down in zip(poset.above, poset.below_masks())])


# Column fillings by lower cell and induced sub-order, shared through
# graphs._shared_states by every poset of at most graphs._STORED_N elements in the
# process; keys as in legs below, values ints.
_LEGS: dict[int, int] = {}
_LEGS_CAP = 1 << 17


def _hook_tableau_counts(poset: Poset) -> list[int]:
    """Entry k counts the hook fillings of arm length k, for k in 0..n.

    One walk visits every chain once, from its bottom cell upward, and
    adds the column fillings above that cell to the count of the chain's
    length.  Those depend only on the order restricted to the bottom cell
    and the elements left, so on posets of sweep size they are stored on
    that sub-order, which posets sharing it share: the 4231 posets on 5
    elements need 5010 states, about 72 per poset otherwise.  A larger
    poset keeps a memo of its own, keyed by the set alone.
    """
    n = poset.n
    above = poset.above
    below = poset.below_masks()  # below[x]: the elements strictly less than x
    full = (1 << n) - 1
    store, rel, sets = _shared_states(_LEGS, _LEGS_CAP, above)

    def legs(lower: int, left: int) -> int:
        # Orderings of the elements of left other than lower stacked above
        # lower, none of them placed directly on an element it is less than.
        remaining = left ^ 1 << lower
        if not remaining:
            return 1
        key = (rel & sets[left]) * n + lower  # one key per sub-order and lower cell
        got = store.get(key)
        if got is None:
            got = 0
            allowed = remaining & ~below[lower]
            while allowed:
                low = allowed & -allowed
                got += legs(low.bit_length() - 1, remaining)
                allowed ^= low
            if left != full:  # a state of the whole poset is met once: not stored
                store[key] = got
        return got

    counts = [0] * (n + 1)

    def chains(bottom: int, top: int, left: int, length: int):
        # left: bottom and the elements off the chain
        counts[length] += legs(bottom, left)
        ups = above[top]
        while ups:
            low = ups & -ups
            chains(bottom, low.bit_length() - 1, left ^ low, length + 1)
            ups ^= low

    for bottom in range(n):
        chains(bottom, bottom, full, 1)
    del legs, chains  # each refers to itself and legs may hold the memo: break the cycles
    return counts


def count_p_tableaux_hooks(poset: Poset) -> tuple[int, ...]:
    """Entry k - 1 counts the hook fillings of arm length k, for k in 1..n:
    the tableau side of the hook proposition."""
    return tuple(_hook_tableau_counts(poset)[1:])


def incomparability_schur_hooks(poset: Poset) -> tuple[int, ...]:
    """Entry k - 1 is the Schur coefficient of the hook (k, 1, ..., 1) in
    the chromatic symmetric function of the incomparability graph, for k
    in 1..n: the Schur side of the hook proposition."""
    return _schur_hooks(poset.n, _incomparability_bits(poset))


@lru_cache(maxsize=1 << 15)  # the 30164 distinct incomparability graphs on 6 elements fit
def _schur_hooks(n: int, bits: int) -> tuple[int, ...]:
    """``hook_coefficients_via_schur`` of the graph ``_graph_of(n, bits)``.
    Posets that share an incomparability graph share this value: the 4231
    labeled posets on 5 elements have 1012 distinct ones, and the graph is
    built only for those."""
    return hook_coefficients_via_schur(_graph_of(n, bits))


# ---------------------------------------------------------------------------
# input format


def parse_poset_text(text: str, source: str = "<input>") -> Poset:
    """Parse a poset file: JSON object with fields n and covers."""
    data = _load_json_object(text, source, ("n", "covers"))
    covers = _check_int_pairs(data.get("covers", []), "covers", source)
    try:
        return Poset.from_covers(data["n"], covers)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_poset(path) -> Poset:
    return parse_poset_text(_read_input(path), source=str(path))
