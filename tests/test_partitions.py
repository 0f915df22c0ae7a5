from collections import Counter

import pytest
from hypothesis import given, strategies as st

from chromsym.partitions import (
    check_composition,
    check_partition,
    composition_from_descents,
    conjugate,
    hook_partition,
    multiplicities,
    partition_of,
    partitions_of,
)
from oracles import compositions_of, descents_from_composition, dominance_leq, partitions_brute


@st.composite
def partition_strategy(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bins = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def test_partitions_of_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert len(partitions_of(7)) == 15


@pytest.mark.parametrize("n", range(9))
def test_partitions_of_matches_brute_force(n):
    got = partitions_of(n)
    assert len(got) == len(set(got))
    assert set(got) == partitions_brute(n)
    assert list(got) == sorted(got, reverse=True)


def test_partitions_of_rejects_negative():
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_hook_partition():
    assert hook_partition(4, 3) == (3, 1)
    assert hook_partition(5, 5) == (5,)
    assert hook_partition(4, 1) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        hook_partition(4, 0)
    with pytest.raises(ValueError):
        hook_partition(4, 5)


def test_conjugate_examples():
    assert conjugate((4, 4, 3)) == (3, 3, 3, 2)
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate(()) == ()


@pytest.mark.parametrize("n", range(1, 9))
def test_hook_conjugation_symmetry(n):
    for k in range(1, n + 1):
        assert conjugate(hook_partition(n, k)) == hook_partition(n, n - k + 1)


@given(partition_strategy())
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_dominance_examples():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1, 1, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_dominance_is_a_partial_order_with_extremes(n):
    parts = partitions_of(n)
    bottom = (1,) * n
    top = (n,)
    for lam in parts:
        assert dominance_leq(lam, lam)
        assert dominance_leq(bottom, lam)
        assert dominance_leq(lam, top)
        for mu in parts:
            if dominance_leq(lam, mu) and dominance_leq(mu, lam):
                assert lam == mu
            for nu in parts:
                if dominance_leq(lam, mu) and dominance_leq(mu, nu):
                    assert dominance_leq(lam, nu)


def test_composition_from_descents_examples():
    assert composition_from_descents((), 4) == (4,)
    assert composition_from_descents({2, 3}, 4) == (2, 1, 1)
    assert composition_from_descents({1, 3}, 5) == (1, 2, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_hook_composition_matches_tail_descent_set(n):
    for k in range(1, n + 1):
        assert composition_from_descents(range(k, n), n) == hook_partition(n, k)


def test_composition_descent_set_round_trip():
    for n in range(9):
        for alpha in compositions_of(n):
            assert composition_from_descents(descents_from_composition(alpha), n) == alpha
    assert composition_from_descents((), 0) == ()


def test_composition_from_descents_rejects_out_of_range():
    with pytest.raises(ValueError):
        composition_from_descents({4}, 4)
    with pytest.raises(ValueError):
        composition_from_descents({0}, 4)


def test_compositions_of_is_complete_and_ordered():
    assert compositions_of(3) == ((3,), (2, 1), (1, 2), (1, 1, 1))
    for n in range(8):
        comps = compositions_of(n)
        assert len(comps) == (1 if n == 0 else 2 ** (n - 1))
        assert all(sum(a) == n for a in comps)
        assert list(comps) == sorted(comps, reverse=True)


def test_partition_of_and_multiplicities():
    assert partition_of((1, 3, 2, 3)) == (3, 3, 2, 1)
    assert multiplicities((3, 3, 2, 1)) == {3: 2, 2: 1, 1: 1}
    with pytest.raises(ValueError):
        check_composition((2, 0, 1))
