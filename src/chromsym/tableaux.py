"""Kostka numbers: the semi-standard tableaux of a shape and a weight,
counted through their characterisation as nested partition chains in
which every step adds a horizontal strip.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import check_partition


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
