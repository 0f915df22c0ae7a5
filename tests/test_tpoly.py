import pytest
from hypothesis import given, strategies as st

from chromsym.tpoly import TPoly

ZERO = TPoly()
ONE = TPoly((1,))
T = TPoly((0, 1))

polys = st.builds(TPoly, st.lists(st.integers(-20, 20), max_size=6))


def test_trailing_zeros_are_stripped():
    assert TPoly((1, 0, 0)).coeffs == (1,)
    assert TPoly((0, 0)).coeffs == ()
    assert TPoly().is_zero()
    assert not TPoly()
    assert TPoly((0, 1))


def test_degree():
    assert ZERO.degree == -1
    assert ONE.degree == 0
    assert T.degree == 1
    assert TPoly((1, 2, 3)).degree == 2


def test_arithmetic_examples():
    assert ONE + T == TPoly((1, 1))
    assert (ONE + T) * (ONE + T) == TPoly((1, 2, 1))
    assert TPoly((1, 1)) - TPoly((0, 1)) == ONE
    assert 2 * T == TPoly((0, 2))
    assert T * T == TPoly.t_power(2)
    assert -TPoly((1, -2)) == TPoly((-1, 2))
    assert sum([ONE, T, T]) == TPoly((1, 2))


def test_substitution():
    p = TPoly((3, 2, 0, 1))
    assert p.subs(1) == 6
    assert p.subs(2) == 3 + 4 + 8
    assert p.subs(0) == 3
    assert ZERO.subs(5) == 0


def test_integer_equality_and_hash():
    assert TPoly((2,)) == 2
    assert TPoly() == 0
    assert hash(TPoly((2,))) == hash(2)
    assert hash(TPoly()) == hash(0)
    assert TPoly((0, 1)) != 1


def test_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(T) == "t"
    assert str(TPoly((0, 2))) == "2t"
    assert str(TPoly((1, 1))) == "1+t"
    assert str(TPoly((0, 0, 1))) == "t^2"
    assert str(TPoly((3, 2, 0, 1))) == "3+2t+t^3"
    assert str(TPoly((1, -1))) == "1-t"
    assert str(TPoly((-1, 2))) == "-1+2t"


def test_t_power_rejects_negative():
    with pytest.raises(ValueError):
        TPoly.t_power(-1)


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys, st.integers(-3, 3))
def test_substitution_is_a_ring_map(p, x):
    q = TPoly((1, 2))
    assert (p + q).subs(x) == p.subs(x) + q.subs(x)
    assert (p * q).subs(x) == p.subs(x) * q.subs(x)
