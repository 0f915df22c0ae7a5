"""Sparse symmetric and quasisymmetric function values with exact coefficients.

Symmetric functions are held in monomial coordinates (partition -> int),
quasisymmetric ones in monomial (M) or fundamental (F) coordinates
(composition -> polynomial in t).  All values are homogeneous of an
explicit degree and zero coefficients are never stored, so equality of
mappings is equality of functions.

Basis changes are exact:

* m -> s is a unitriangular Kostka system solved in the canonical
  (descending) partition order; m -> e is solved from the Schur
  coefficients, since e_mu = sum_lam K(lam, mu) s_lam' is unitriangular
  too, in the ascending order,
* M <-> F maps each composition to its descent set, a mask over
  {1..n-1}, and runs a Moebius (M -> F) or zeta (F -> M) transform over
  the 2^(n-1) masks on plain integer lists, one power of t at a time;
  the tests hold it to the signed refinement-order inversion.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import permutations
from math import factorial

from .partitions import (
    Composition,
    Partition,
    _compositions_by_mask,
    _descent_mask,
    check_composition,
    check_partition,
    composition_from_descents,
    conjugate,
    multiplicities,
    partition_of,
    partitions_of,
)
from .tableaux import ides, kostka, reading_word, standard_tableaux
from .tpoly import TPoly


def _as_poly(value) -> TPoly:
    return value if isinstance(value, TPoly) else TPoly((int(value),))


class SymmetricFunctionM:
    """A homogeneous symmetric function in monomial coordinates."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        cleaned: dict[Partition, int] = {}
        for lam, c in dict(coeffs).items():
            lam = check_partition(lam)
            if sum(lam) != degree:
                raise ValueError(f"key {lam} is not a partition of {degree}")
            c = int(c)
            if c:
                cleaned[lam] = c
        self.degree = degree
        self.coeffs = cleaned

    def coefficient(self, lam) -> int:
        return self.coeffs.get(tuple(lam), 0)

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricFunctionM)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"SymmetricFunctionM({self.degree}, {self.coeffs!r})"


class _QuasisymmetricBase:
    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        cleaned: dict[Composition, TPoly] = {}
        for alpha, c in dict(coeffs).items():
            alpha = check_composition(alpha)
            if sum(alpha) != degree:
                raise ValueError(f"key {alpha} is not a composition of {degree}")
            poly = _as_poly(c)
            if poly:
                cleaned[alpha] = poly
        self.degree = degree
        self.coeffs = cleaned

    @classmethod
    def _trusted(cls, degree: int, coeffs: dict[Composition, TPoly]):
        """A value whose keys are compositions of degree and whose
        coefficients are nonzero TPoly, as the kernels build them; nothing
        is checked or copied."""
        f = object.__new__(cls)
        f.degree, f.coeffs = degree, coeffs
        return f

    def coefficient(self, alpha) -> TPoly:
        return self.coeffs.get(tuple(alpha), TPoly())

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((type(self).__name__, self.degree, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.degree}, {self.coeffs!r})"


class QuasisymmetricM(_QuasisymmetricBase):
    """Monomial-basis quasisymmetric value, composition -> t-polynomial."""


class QuasisymmetricF(_QuasisymmetricBase):
    """Fundamental-basis quasisymmetric value, composition -> t-polynomial."""


# ---------------------------------------------------------------------------
# symmetric basis changes


def _kostka_solve(rhs, order, entry) -> dict[Partition, int]:
    """x with rhs(lam) = x[lam] + sum of entry(mu, lam) * x[mu] over the mu
    before lam in order, solved one lam at a time."""
    out: dict[Partition, int] = {}
    for lam in order:
        acc = rhs(lam)
        for mu, x in out.items():
            if x:
                acc -= entry(mu, lam) * x
        out[lam] = acc
    return {lam: x for lam, x in out.items() if x}


def m_to_s(f: SymmetricFunctionM) -> dict[Partition, int]:
    """Schur coefficients of f, by the unitriangular Kostka solve."""
    return _kostka_solve(f.coefficient, partitions_of(f.degree), kostka)


def m_to_e(f: SymmetricFunctionM) -> dict[Partition, int]:
    """Elementary coefficients of f, solved from its Schur coefficients.

    Since e_mu = sum_lam K(lam, mu) s_lam', the Schur coefficients c of
    f = sum_mu b_mu e_mu satisfy c_lam' = sum_mu K(lam, mu) b_mu.  K(lam, mu)
    vanishes unless mu <= lam in dominance and K(lam, lam) = 1, so the system
    is solved by scanning lam upward in the canonical order.
    """
    schur = m_to_s(f)
    return _kostka_solve(
        lambda lam: schur.get(conjugate(lam), 0),
        reversed(partitions_of(f.degree)),
        lambda mu, lam: kostka(lam, mu),
    )


def schur_m_expansion(schur_coeffs, degree: int) -> SymmetricFunctionM:
    """Re-expand a Schur coefficient vector into monomial coordinates."""
    acc: Counter = Counter()
    for mu, c in dict(schur_coeffs).items():
        mu = check_partition(mu)
        for lam in partitions_of(degree):
            acc[lam] += c * kostka(mu, lam)
    return SymmetricFunctionM(degree, acc)


# ---------------------------------------------------------------------------
# quasisymmetric basis changes


def _subset_transform(f, sign: int) -> dict[Composition, TPoly]:
    """Coefficients c of f over the descent-set masks S, replaced by
    sum over T within S of sign^|S - T| c_T, one t-power at a time."""
    n = f.degree
    table = _compositions_by_mask(n)
    size = len(table)
    width = max((len(p.coeffs) for p in f.coeffs.values()), default=0)
    rows = [[0] * size for _ in range(width)]  # rows[d][S]: coefficient of t^d
    for alpha, poly in f.coeffs.items():
        s = _descent_mask(alpha)
        for d, c in enumerate(poly.coeffs):
            rows[d][s] = c
    for row in rows:
        bit = 1
        while bit < size:
            for start in range(bit, size, bit << 1):  # the S holding bit
                for s in range(start, start + bit):
                    row[s] += sign * row[s - bit]
            bit <<= 1
    out: dict[Composition, TPoly] = {}
    for s, column in enumerate(zip(*rows)):
        if any(column):
            out[table[s]] = TPoly(column)
    return out


def qsym_M_to_F(f: QuasisymmetricM) -> QuasisymmetricF:
    """Fundamental coordinates of f.  Over descent sets, M_T is the sum
    over S containing T of (-1)^|S - T| F_S, so the coordinates are the
    Moebius transform of f's over the subsets of {1..n-1}."""
    return QuasisymmetricF._trusted(f.degree, _subset_transform(f, -1))


def qsym_F_to_M(f: QuasisymmetricF) -> QuasisymmetricM:
    """Monomial coordinates of f: F_S spreads over M_T for every T
    containing S, the zeta transform over the subsets of {1..n-1}."""
    return QuasisymmetricM._trusted(f.degree, _subset_transform(f, 1))


def is_symmetric(f: QuasisymmetricM) -> bool:
    """Whether rearranged compositions always carry equal coefficients."""
    seen: set[Partition] = set()
    for alpha in f.coeffs:
        seen.add(partition_of(alpha))
    for lam in seen:
        reference = None
        for alpha in set(permutations(lam)):
            poly = f.coefficient(alpha)
            if reference is None:
                reference = poly
            elif poly != reference:
                return False
    return True


def monomial_to_quasi(f: SymmetricFunctionM) -> QuasisymmetricM:
    """Reinterpret m-coordinates quasisymmetrically: m_lam spreads over
    the distinct rearrangements of lam."""
    out: dict[Composition, TPoly] = {}
    for lam, c in f.coeffs.items():
        for alpha in set(permutations(lam)):
            out[alpha] = TPoly((c,))
    return QuasisymmetricM(f.degree, out)


def collapse_t(f):
    """Substitute t = 1 in every coefficient, preserving the type."""
    return type(f)(f.degree, {a: TPoly((p.subs(1),)) for a, p in f.coeffs.items()})


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


def hook_coefficient_of_F(f, k: int) -> TPoly:
    """Coefficient at the hook composition (k, 1, ..., 1)."""
    n = f.degree
    if not 1 <= k <= n:
        raise ValueError(f"hook arm length must be in 1..{n}, got {k}")
    return f.coefficient((k,) + (1,) * (n - k))


def gessel_schur_F(lam) -> QuasisymmetricF:
    """Fundamental expansion of the Schur function s_lam.

    One term per standard tableau of shape lam, indexed by the descent
    composition of the inverse of its reading word.
    """
    lam = check_partition(lam)
    n = sum(lam)
    counts: Counter = Counter()
    for t in standard_tableaux(lam):
        counts[composition_from_descents(ides(reading_word(t)), n)] += 1
    return QuasisymmetricF(n, {a: TPoly((c,)) for a, c in counts.items()})


# ---------------------------------------------------------------------------
# canonical serialization


def canonical_items(f) -> list:
    """(key, coefficient) pairs in canonical descending key order."""
    if isinstance(f, SymmetricFunctionM):
        return [(lam, f.coeffs[lam]) for lam in sorted(f.coeffs, reverse=True)]
    return [(a, f.coeffs[a]) for a in sorted(f.coeffs, reverse=True)]


def serialize(f) -> str:
    """Canonical text form: JSON list of [parts, poly-coefficients] pairs."""
    pairs = []
    for key, c in canonical_items(f):
        coeffs = [c] if isinstance(c, int) else list(c.coeffs)
        pairs.append([list(key), coeffs])
    return json.dumps(pairs, separators=(",", ":"))
