"""Exact polynomials in the single variable t with integer coefficients.

Coefficients are stored densely (index = power of t) with no trailing
zeros, so equality of values is equality of coefficient tuples.  All
arithmetic is plain Python integer arithmetic and therefore exact.
"""

from __future__ import annotations


def _normalize(coeffs) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class TPoly:
    """Immutable integer polynomial in t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _normalize([int(c) for c in coeffs])

    @classmethod
    def _trusted(cls, coeffs) -> "TPoly":
        """A value from a list or tuple of ints, as the kernels build it:
        trailing zeros are cut, and nothing is checked or converted."""
        p = object.__new__(cls)
        p.coeffs = _normalize(coeffs)
        return p

    @classmethod
    def t_power(cls, k: int, coeff: int = 1) -> "TPoly":
        if k < 0:
            raise ValueError("powers of t must be nonnegative")
        return cls((0,) * k + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def subs(self, value: int) -> int:
        """Evaluate at an integer value of t (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __add__(self, other):
        if isinstance(other, int):
            other = TPoly((other,))
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = TPoly((other,))
        if not isinstance(other, TPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return TPoly([c * other for c in self.coeffs])
        if not isinstance(other, TPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return TPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return TPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _normalize((other,))
        return NotImplemented

    def __hash__(self):
        # Constants hash like the ints they equal.
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __repr__(self):
        return f"TPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for power, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if power == 0:
                body = str(abs(c))
            else:
                tpart = "t" if power == 1 else f"t^{power}"
                body = tpart if abs(c) == 1 else f"{abs(c)}{tpart}"
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append(("+" if c > 0 else "-") + body)
        return "".join(terms)

