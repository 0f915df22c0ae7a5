"""Self-time arithmetic over the spans one traced call writes.

A span is ``(name, start, end, parent, leaf_s)``: ``parent`` is the index
of the enclosing span (-1 for the root) and ``leaf_s`` the time spent in
counted leaf functions while this span was the innermost open one.  A
span's self time is its duration minus the part of it that its child
spans cover, minus its leaf time.
"""

from __future__ import annotations


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Self time of every span, in the order given."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered((start, end), children[i]) - leaf_s
        for i, (_, start, end, _, leaf_s) in enumerate(spans)
    ]


def aggregate(spans) -> dict[str, list]:
    """name -> [calls, self_s] over all spans of that name."""
    out: dict[str, list] = {}
    for (name, *_), self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += self_s
    return out
