"""Sparse symmetric and quasisymmetric function values with exact coefficients.

Symmetric functions are held in monomial coordinates (partition -> int),
quasisymmetric ones in monomial (M) or fundamental (F) coordinates
(composition -> polynomial in t).  All values are homogeneous of an
explicit degree and zero coefficients are never stored, so equality of
mappings is equality of functions.

Basis changes are exact:

* m -> s and m -> e read one table per degree, the h-expansion of every
  Schur function from the first-column expansion of the Jacobi-Trudi
  determinant; no Kostka number is computed.  Since m and h are dual,
  the Schur coefficients are dot products of that table with the
  m-coefficients, and since s_lam = det[e_(lam'_i - i + j)] too, the
  e-coefficients are read from the same table at the conjugate shapes,
* M -> F maps each composition to its descent set, a mask over
  {1..n-1}, and runs a Moebius transform over the 2^(n-1) masks on plain
  integer lists, one power of t at a time; the tests hold it to the
  signed refinement-order inversion and to the unsigned refinement sum
  F -> M.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from types import MappingProxyType

from .partitions import (
    Composition,
    Partition,
    _binomials,
    _compositions_by_mask,
    _descent_mask,
    _partitions_by_code,
    check_composition,
    check_partition,
    conjugate,
    multiplicities,
    partition_of,
    partitions_of,
)
from .tableaux import kostka  # noqa: F401  (perfbench/shim.py wraps this binding)
from .tpoly import TPoly


def _as_poly(value) -> TPoly:
    return value if isinstance(value, TPoly) else TPoly((int(value),))


class _CoefficientMap:
    """A homogeneous value of one degree as a read-only mapping from keys to
    nonzero coefficients, so that a cached value is safe to share; values
    are equal when class, degree and mapping are.

    A subclass names its keys (``_kind``), checks one (``_check_key``) and
    coerces a coefficient (``_coerce``)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        cleaned = {}
        for key, c in dict(coeffs).items():
            key = self._check_key(key)
            if sum(key) != degree:
                raise ValueError(f"key {key} is not a {self._kind} of {degree}")
            c = self._coerce(c)
            if c:
                cleaned[key] = c
        self.degree = degree
        self.coeffs = MappingProxyType(cleaned)

    @classmethod
    def _trusted(cls, degree: int, coeffs: dict):
        """A value whose keys are valid keys of weight degree and whose
        coefficients are nonzero, as the kernels build them; nothing is
        checked or copied, so the builder must not change coeffs after."""
        f = object.__new__(cls)
        f.degree, f.coeffs = degree, MappingProxyType(coeffs)
        return f

    def __reduce__(self):  # a mappingproxy does not pickle
        return type(self), (self.degree, dict(self.coeffs))

    def coefficient(self, key):
        return self.coeffs.get(tuple(key), self._zero)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((type(self).__name__, self.degree, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.degree}, {dict(self.coeffs)!r})"


class SymmetricFunctionM(_CoefficientMap):
    """A homogeneous symmetric function in monomial coordinates."""

    __slots__ = ()
    _zero = 0
    _kind = "partition"
    _check_key = staticmethod(check_partition)
    _coerce = int


class _QuasisymmetricBase(_CoefficientMap):
    _zero = TPoly()
    _kind = "composition"
    _check_key = staticmethod(check_composition)
    _coerce = staticmethod(_as_poly)


class QuasisymmetricM(_QuasisymmetricBase):
    """Monomial-basis quasisymmetric value, composition -> t-polynomial."""


class QuasisymmetricF(_QuasisymmetricBase):
    """Fundamental-basis quasisymmetric value, composition -> t-polynomial."""


# ---------------------------------------------------------------------------
# symmetric basis changes


@lru_cache(maxsize=8)
def _schur_h_table(n: int) -> dict[Partition, tuple[tuple[Partition, int], ...]]:
    """lam -> the nonzero (nu, a) with s_lam = sum of a * h_nu, for every
    partition lam of n in canonical order: the h-expansion of s_lam.

    The rows come from the Jacobi-Trudi determinant s_lam = det[h_(lam_i - i
    + j)], expanded along its first column:
        s_lam = sum_i (-1)^(i - 1) h_(lam_i - i + 1) s_mu(i),
        mu(i) = (lam_1 + 1, ..., lam_(i-1) + 1, lam_(i+1), ...),
    with h_0 = 1 and h_r = 0 for r < 0 (Macdonald I.(3.4); the signed
    terms are the special rim hook tabloids of Egecioglu and Remmel, 1990).
    Each mu(i) is a partition of smaller weight, and its expansion is
    memoized.  A product h_nu is coded as the sum over the parts k of nu of
    (n + 1)^(k - 1), so multiplying by h_r is adding (n + 1)^(r - 1).
    """
    base = n + 1
    memo: dict[Partition, dict[int, int]] = {(): {0: 1}}

    def expand(lam: Partition) -> dict[int, int]:
        got = memo.get(lam)
        if got is None:
            got = {}
            for i, part in enumerate(lam):
                r = part - i  # the first-column entry is h_r
                if r < 0:
                    break  # part - i only falls as i grows
                mu = tuple(p + 1 for p in lam[:i]) + lam[i + 1 :]
                shift = base ** (r - 1) if r else 0
                sign = -1 if i & 1 else 1
                for code, c in expand(mu).items():
                    got[code + shift] = got.get(code + shift, 0) + sign * c
            got = {code: c for code, c in got.items() if c}
            memo[lam] = got
        return got

    by_code = _partitions_by_code(n)  # every nu of a row is a partition of n
    table = {lam: tuple((by_code[code], c) for code, c in expand(lam).items()) for lam in partitions_of(n)}
    del expand  # expand refers to itself: break the cycle so the memo is freed at once
    return table


def m_to_s(f: SymmetricFunctionM) -> dict[Partition, int]:
    """Schur coefficients of f, in canonical order.

    Since <m_mu, h_nu> = [mu = nu], the coefficient of s_lam is
    <f, s_lam> = sum_nu a(lam, nu) b_nu, with s_lam = sum_nu a(lam, nu) h_nu
    the Jacobi-Trudi table and b the m-coefficients of f.
    """
    b = f.coeffs
    out: dict[Partition, int] = {}
    for lam, row in _schur_h_table(f.degree).items():
        c = 0
        for nu, a in row:
            x = b.get(nu)
            if x:
                c += a * x
        if c:
            out[lam] = c
    return out


def m_to_e(f: SymmetricFunctionM) -> dict[Partition, int]:
    """Elementary coefficients of f, in ascending canonical order."""
    return _s_to_e(f.degree, m_to_s(f))


def _s_to_e(n: int, schur: dict[Partition, int]) -> dict[Partition, int]:
    """Elementary coefficients, in ascending canonical order, of the
    function of degree n with the Schur coefficients schur.

    Applying the involution omega to Jacobi-Trudi gives s_lam = det[e_(lam'_i
    - i + j)], so s_lam = sum_nu a(lam', nu) e_nu with the same table, and
    f = sum_lam c_lam s_lam has the e-coefficients
    d_nu = sum_lam c_lam a(lam', nu).
    """
    table = _schur_e_table(n)
    acc: dict[Partition, int] = {}
    for lam, c in schur.items():
        for nu, a in table[lam]:
            acc[nu] = acc.get(nu, 0) + c * a
    return {nu: acc[nu] for nu in reversed(partitions_of(n)) if acc.get(nu)}


@lru_cache(maxsize=8)
def _schur_e_table(n: int) -> dict[Partition, tuple[tuple[Partition, int], ...]]:
    """lam -> the nonzero (nu, a) with s_lam = sum of a * e_nu: the row of
    lam' in ``_schur_h_table(n)``."""
    return {lam: _schur_h_table(n)[conjugate(lam)] for lam in partitions_of(n)}


# ---------------------------------------------------------------------------
# quasisymmetric basis changes


def qsym_M_to_F(f: QuasisymmetricM) -> QuasisymmetricF:
    """Fundamental coordinates of f.  Over descent sets, M_T is the sum
    over S containing T of (-1)^|S - T| F_S, so the coordinate at S is
    the sum over T within S of (-1)^|S - T| c_T, the Moebius transform of
    f's coordinates c over the subsets of {1..n-1}, one t-power at a time."""
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
                    row[s] -= row[s - bit]
            bit <<= 1
    out: dict[Composition, TPoly] = {}
    for s, column in enumerate(zip(*rows)):
        poly = TPoly._trusted(column)
        if poly:
            out[table[s]] = poly
    return QuasisymmetricF._trusted(n, out)


def is_symmetric(f: QuasisymmetricM) -> bool:
    """Whether rearranged compositions always carry equal coefficients.
    Zero coefficients are never stored, so f is symmetric exactly when the
    stored rearrangements of each partition lam number all of them, the
    multinomial coefficient of lam's multiplicities, and carry one value."""
    groups: dict[Partition, list[TPoly]] = {}
    for alpha, poly in f.coeffs.items():
        groups.setdefault(partition_of(alpha), []).append(poly)
    for lam, polys in groups.items():
        if len(polys) != _rearrangements(lam) or any(poly != polys[0] for poly in polys):
            return False
    return True


def _rearrangements(lam: Partition) -> int:
    """The compositions that rearrange lam: len(lam)! over the factorials
    of its part multiplicities."""
    count = factorial(len(lam))
    for mult in multiplicities(lam).values():
        count //= factorial(mult)
    return count


def collapse_t(f):
    """Substitute t = 1 in every coefficient, preserving the type."""
    return type(f)(f.degree, {a: TPoly((p.subs(1),)) for a, p in f.coeffs.items()})


@lru_cache(maxsize=8)
def _monomials_at_ones(n: int) -> dict[Partition, tuple[int, ...]]:
    """lam -> m_lam(1^k), its monomials in k variables, for k in 0..n and
    every partition lam of n: C(k, len(lam)) times the rearrangements."""
    return {lam: tuple(row[len(lam)] * _rearrangements(lam) for row in _binomials(n)) for lam in partitions_of(n)}


# ---------------------------------------------------------------------------
# canonical serialization


def canonical_items(f) -> list:
    """(key, coefficient) pairs in canonical descending key order."""
    return [(key, f.coeffs[key]) for key in sorted(f.coeffs, reverse=True)]


def _terms_json(items) -> list:
    """(key, coefficient) pairs as [parts, poly-coefficients] lists."""
    return [[list(key), [c] if isinstance(c, int) else list(c.coeffs)] for key, c in items]

