"""Integer partitions, compositions, and the descent-set correspondence.

Conventions used throughout the package:

* a partition is a tuple of weakly decreasing positive integers,
* a composition is a tuple of positive integers with order significant,
* partitions and compositions of n are canonically ordered by plain
  descending tuple comparison, so ``partitions_of(3)`` starts at ``(3,)``
  and ends at ``(1, 1, 1)``.

A composition of n and its descent set, the set of its proper partial
sums in ``1..n-1``, determine each other: ``composition_from_descents``
builds the composition, and ``_descent_mask`` reads the set back as a
bit mask.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod

Partition = tuple[int, ...]
Composition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Validate and normalise a partition given as any integer iterable."""
    lam = tuple(int(p) for p in parts)
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {lam}")
        if i and lam[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


def check_composition(parts) -> Composition:
    """Validate a composition given as any integer iterable."""
    alpha = tuple(int(p) for p in parts)
    if any(p < 1 for p in alpha):
        raise ValueError(f"composition parts must be positive, got {alpha}")
    return alpha


@lru_cache(maxsize=32)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each once, in canonical (descending) order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(rem: int, cap: int):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest

    out = tuple(rec(n, n))
    del rec  # rec refers to itself: break the cycle
    return out


def hook_partition(n: int, k: int) -> Partition:
    """The hook (k, 1, ..., 1) of weight n."""
    if not 1 <= k <= n:
        raise ValueError(f"hook arm length must be in 1..{n}, got {k}")
    return (k,) + (1,) * (n - k)


@lru_cache(maxsize=8)
def _hooks(n: int) -> tuple[Partition, ...]:
    """Entry k - 1 is the hook (k, 1, ..., 1) of weight n, for k in 1..n."""
    return tuple(hook_partition(n, k) for k in range(1, n + 1))


@lru_cache(maxsize=8)
def _binomials(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry a is the row of C(a, b) for b in 0..n, for a in 0..n."""
    return tuple(tuple(comb(a, b) for b in range(n + 1)) for a in range(n + 1))


def conjugate(lam) -> Partition:
    """Column lengths of the diagram of lam."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0]))


def composition_from_descents(descents, n: int) -> Composition:
    """The composition of n whose proper partial sums are the given set."""
    prev = 0
    parts = []
    for d in sorted({int(d) for d in descents}):
        if not 0 < d < n:
            raise ValueError(f"descent positions must lie in 1..{n - 1}, got {d}")
        parts.append(d - prev)
        prev = d
    if n > 0:
        parts.append(n - prev)
    return tuple(parts)


@lru_cache(maxsize=16)
def _compositions_by_mask(n: int) -> tuple[Composition, ...]:
    """Entry S is the composition of n whose descent set is {i : bit i - 1
    of S is set}, for every S below 2^(n-1); n = 0 gives ((),)."""
    return tuple(
        composition_from_descents([i for i in range(1, n) if mask >> (i - 1) & 1], n)
        for mask in range(1 << max(n - 1, 0))
    )


def _descent_mask(alpha: Composition) -> int:
    """The descent set of a valid composition as a mask, bit i - 1 for
    descent i; the inverse of ``_compositions_by_mask``."""
    mask = acc = 0
    for part in alpha[:-1]:
        acc += part
        mask |= 1 << (acc - 1)
    return mask


def partition_of(alpha) -> Partition:
    """The underlying partition of a composition (parts sorted)."""
    return tuple(sorted(check_composition(alpha), reverse=True))


@lru_cache(maxsize=8)
def _partitions_by_code(n: int) -> dict[int, Partition]:
    """code -> partition, for every partition of n in canonical order.  A
    partition is coded as the sum over its parts k of (n + 1)^(k - 1), so
    that adding a part is adding an integer."""
    base = n + 1
    return {sum(base ** (k - 1) for k in lam): lam for lam in partitions_of(n)}


@lru_cache(maxsize=8)
def _multiplicity_factorials(n: int) -> dict[Partition, int]:
    """lam -> the product of the factorials of its part multiplicities, for
    every partition lam of n: the orders of its equal parts among
    themselves."""
    return {lam: prod(factorial(lam.count(part)) for part in set(lam)) for lam in partitions_of(n)}


def multiplicities(lam) -> dict[int, int]:
    """Part multiplicities of a partition, part -> count."""
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out
