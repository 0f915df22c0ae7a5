"""Young tableaux, Kostka numbers, and reading-word combinatorics.

Diagrams are stored bottom row first (French convention): ``rows[0]`` is
the longest row and columns strictly increase upward.  Semi-standard
tableaux are counted through their characterisation as nested partition
chains in which every step adds a horizontal strip.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import check_partition


class Tableau:
    """A semi-standard filling, rows bottom-up, entries positive; immutable."""

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


def _strip_removals(shape: tuple[int, ...], size: int):
    """Shapes nu <= shape with shape/nu a horizontal strip of the given size."""

    def rec(i: int, remaining: int):
        if i == len(shape):
            if remaining == 0:
                yield ()
            return
        low = shape[i + 1] if i + 1 < len(shape) else 0
        for v in range(shape[i], low - 1, -1):
            removed = shape[i] - v
            if removed > remaining:
                break
            for rest in rec(i + 1, remaining - removed):
                yield (v,) + rest

    try:
        for nu in rec(0, size):
            yield tuple(p for p in nu if p)
    finally:
        del rec  # rec refers to itself: break the cycle, also when the caller stops early


@lru_cache(maxsize=1 << 15)
def _chain_count(shape: tuple[int, ...], weight: tuple[int, ...]) -> int:
    if not weight:
        return 1 if not shape else 0
    *rest, last = weight
    if last == 0:
        return _chain_count(shape, tuple(rest))
    return sum(_chain_count(nu, tuple(rest)) for nu in _strip_removals(shape, last))


def kostka(lam, weight) -> int:
    """Number of semi-standard tableaux of shape lam and the given weight.

    The weight is an arbitrary vector of nonnegative integers summing to
    the weight of lam; entries of value i appear weight[i-1] times.
    """
    lam = check_partition(lam)
    mu = tuple(int(w) for w in weight)
    if any(w < 0 for w in mu):
        raise ValueError(f"weights must be nonnegative, got {mu}")
    if sum(mu) != sum(lam):
        raise ValueError(f"weight {mu} does not sum to the size of {lam}")
    return _chain_count(lam, mu)


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
