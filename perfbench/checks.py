"""Output checks that do not use chromsym.

``check_output`` parses one call's stdout and compares it with facts this
module computes on its own: chromatic polynomials, acyclic-orientation
counts (Stanley: |P(-1)|), descent polynomials over all vertex orders, and
the number of graphs and labeled posets a sweep must visit.  It returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import re
from math import comb, factorial, prod

from workloads import Call, GraphSpec

# Labeled posets on n elements (OEIS A001035).
LABELED_POSETS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}

_ROW = re.compile(r"^  \(([\d,]*)\)\s+(\S+)$")
_TERM = re.compile(r"([+-]?)(\d*)(t(?:\^(\d+))?)?")


# ---------------------------------------------------------------------------
# independent arithmetic


def parse_poly(text: str) -> list[int]:
    """Coefficients of a t-polynomial written like ``3+2t-t^2``."""
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r}")
        sign, digits, tpart, power = match.groups()
        c = int(digits) if digits else 1
        p = (int(power) if power else 1) if tpart else 0
        coeffs[p] = coeffs.get(p, 0) + (-c if sign == "-" else c)
        pos = match.end()
    top = max(coeffs, default=-1)
    return [coeffs.get(i, 0) for i in range(top + 1)]


def stable_partition_counts(spec: GraphSpec) -> list[int]:
    """a[j] = number of partitions of V into j independent sets."""
    adj = [0] * spec.n
    for u, v in spec.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    counts = [0] * (spec.n + 1)
    blocks: list[int] = []

    def rec(v: int) -> None:
        if v == spec.n:
            counts[len(blocks)] += 1
            return
        for i, block in enumerate(blocks):
            if block & adj[v] == 0:
                blocks[i] = block | 1 << v
                rec(v + 1)
                blocks[i] = block
        blocks.append(1 << v)
        rec(v + 1)
        blocks.pop()

    rec(0)
    return counts


def falling(k: int, j: int) -> int:
    return prod(k - i for i in range(j))


def chromatic_polynomial(spec: GraphSpec, k: int) -> int:
    """P(k), from a closed form for trees and cycles, else from stable partitions."""
    n = spec.n
    if spec.family == "tree":
        return k * (k - 1) ** (n - 1)
    if spec.family == "cycle":
        return (k - 1) ** n + (-1) ** n * (k - 1)
    return sum(a * falling(k, j) for j, a in enumerate(stable_partition_counts(spec)))


def acyclic_orientation_count(spec: GraphSpec) -> int:
    """Stanley: the number of acyclic orientations is (-1)^n P(-1)."""
    return (-1) ** spec.n * chromatic_polynomial(spec, -1)


def order_descent_poly(spec: GraphSpec, labels) -> list[int]:
    """Sum over all vertex orders of t^(edges whose earlier end has the larger label).

    Every order induces one acyclic orientation (earlier end to later end)
    and is one of its linear extensions, so this is the sum of all
    F-coefficients of the chromatic quasisymmetric function.
    """
    n, m = spec.n, len(spec.edges)
    adj = [0] * n
    for u, v in spec.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    above = [sum(1 << (u - 1) for u in range(1, n + 1) if labels[u - 1] > labels[v - 1]) for v in range(1, n + 1)]
    table: list[list[int] | None] = [None] * (1 << n)
    table[0] = [1] + [0] * m
    for placed in range(1 << n):
        poly = table[placed]
        if poly is None:
            continue
        for v in range(n):
            if placed >> v & 1:
                continue
            shift = (placed & adj[v] & above[v]).bit_count()
            nxt = placed | 1 << v
            if table[nxt] is None:
                table[nxt] = [0] * (m + 1)
            target = table[nxt]
            for d, c in enumerate(poly):
                if c:
                    target[d + shift] += c
    return table[(1 << n) - 1]


def m_at_ones(lam, k: int) -> int:
    """m_lam(1^k): distinct rearrangements of lam padded to k entries."""
    ell = len(lam)
    if ell > k:
        return 0
    ways = factorial(k) // factorial(k - ell)
    for part in set(lam):
        ways //= factorial(lam.count(part))
    return ways


def s_at_ones(lam, k: int) -> int:
    """s_lam(1^k) by the hook-content formula."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= k + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den


def e_at_ones(lam, k: int) -> int:
    return prod(comb(k, p) for p in lam)


# ---------------------------------------------------------------------------
# output parsing


def _status_ok(verb: str, text: str, as_json: bool) -> bool:
    if as_json:
        return json.loads(text).get("status") == "ok"
    if verb == "expand":
        # Text expansions print no status line.
        return text.startswith("# expand ")
    lines = text.splitlines()
    return bool(lines) and lines[-1] == "status: ok"


def _terms(text: str, as_json: bool) -> list[tuple[tuple[int, ...], list[int]]]:
    if as_json:
        return [(tuple(k), list(c)) for k, c in json.loads(text)["outputs"]["terms"]]
    terms = []
    for line in text.splitlines():
        match = _ROW.match(line)
        if match:
            key = tuple(int(p) for p in match.group(1).split(",") if p)
            terms.append((key, parse_poly(match.group(2))))
    return terms


def _verify_rows(text: str, as_json: bool) -> list[tuple[int, str, str]]:
    if as_json:
        return [(k, str(a), str(b)) for k, a, b in json.loads(text)["outputs"]["table"]]
    rows = []
    for line in text.splitlines()[2:]:
        parts = line.split()
        if len(parts) == 3 and parts[0].isdigit():
            rows.append((int(parts[0]), parts[1], parts[2]))
    return rows


def _poly_sum(polys) -> list[int]:
    out: list[int] = []
    for poly in polys:
        out.extend([0] * (len(poly) - len(out)))
        for i, c in enumerate(poly):
            out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# per-verb checks


def _check_expand(call: Call, text: str, as_json: bool) -> list[str]:
    spec = call.graph
    basis = call.argv[call.argv.index("--basis") + 1]
    terms = [(lam, c[0]) for lam, c in _terms(text, as_json)]
    at_ones = {"m": m_at_ones, "s": s_at_ones, "e": e_at_ones}[basis]
    problems = []
    for k in range(spec.n + 2):
        got = sum(c * at_ones(lam, k) for lam, c in terms)
        want = chromatic_polynomial(spec, k)
        if got != want:
            problems.append(f"X_G(1^{k}) = {got}, chromatic polynomial gives {want}")
    if basis == "e":
        got = sum(c for _, c in terms)
        want = acyclic_orientation_count(spec)
        if got != want:
            problems.append(f"e-coefficients sum to {got}, acyclic orientations {want}")
    return problems


def _check_cqf(call: Call, text: str, as_json: bool) -> list[str]:
    spec = call.graph
    labels = spec.labels or tuple(range(1, spec.n + 1))
    problems = []
    got = _poly_sum(c for _, c in _terms(text, as_json))
    want = order_descent_poly(spec, labels)
    while want and want[-1] == 0:
        want.pop()
    if got != want:
        problems.append(f"F-coefficients sum to {got}, vertex orders give {want}")
    if "--t-eval" in call.argv:
        symmetric = (
            json.loads(text)["outputs"].get("symmetric_at_1")
            if as_json
            else "symmetric at t=1: yes" in text.splitlines()
        )
        if symmetric is not True:
            problems.append("X_G is symmetric at t=1, output says otherwise")
    if "--verbose" in call.argv:
        lines = [ln for ln in text.splitlines() if ln.startswith("  arcs: ")]
        words = sum(len(ln.split("extensions: ", 1)[1].split()) for ln in lines)
        if len(lines) != acyclic_orientation_count(spec):
            problems.append(f"{len(lines)} orientations listed, expected {acyclic_orientation_count(spec)}")
        if words != factorial(spec.n):
            problems.append(f"{words} linear extensions listed, expected {spec.n}!")
    return problems


def _check_verify(call: Call, text: str, as_json: bool) -> list[str]:
    spec = call.graph
    check = call.argv[2]
    rows = _verify_rows(text, as_json)
    ao = acyclic_orientation_count(spec)
    problems = []
    if check == "chrompoly":
        for k, a, b in rows:
            want = str(chromatic_polynomial(spec, k))
            if not a == b == want:
                problems.append(f"P({k}) printed as {a} and {b}, expected {want}")
    elif check == "hook-1":
        if not rows or rows[0][1:] != (str(ao), str(ao)):
            problems.append(f"hook-1 row k=1 should be {ao} acyclic orientations")
    elif check == "e-sink":
        total = sum(int(a) for _, a, _ in rows)
        if total != ao:
            problems.append(f"sink histogram sums to {total}, acyclic orientations {ao}")
    elif check == "hook-t":
        if not rows or any(sum(parse_poly(p)) != ao for p in rows[0][1:]):
            problems.append(f"hook-t row k=1 at t=1 should be {ao} acyclic orientations")
    if len(rows) != (spec.n + 1 if check == "chrompoly" else spec.n):
        problems.append(f"{len(rows)} table rows")
    return problems


def _check_sweep(call: Call, text: str) -> list[str]:
    n = int(call.argv[call.argv.index("--max-n") + 1])
    checks = call.argv[call.argv.index("--checks") + 1]
    want = LABELED_POSETS[n] if checks == "ptableaux" else 2 ** (n * (n - 1) // 2)
    lines = text.splitlines()
    problems = []
    if f"cases run: {want}" not in lines:
        problems.append(f"sweep should run {want} cases")
    if "failures: 0" not in lines:
        problems.append("sweep reported failures")
    return problems


def check_output(call: Call, text: str) -> list[str]:
    """Problems with one call's stdout; empty if it passes."""
    as_json = "--json" in call.argv
    try:
        verb = call.argv[0]
        problems = [] if _status_ok(verb, text, as_json) else ["status is not ok"]
        if verb == "expand":
            problems += _check_expand(call, text, as_json)
        elif verb == "cqf":
            problems += _check_cqf(call, text, as_json)
        elif verb == "verify":
            problems += _check_verify(call, text, as_json)
        else:
            problems += _check_sweep(call, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unparseable output: {exc!r}"]
    return problems
