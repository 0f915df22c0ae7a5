from itertools import permutations

import pytest

from chromsym.partitions import partitions_of
from chromsym.tableaux import kostka
from oracles import (
    Tableau,
    descent_set,
    dominance_leq,
    ides,
    inverse_permutation,
    reading_word,
    ssyt_count_brute,
    standard_tableaux,
)

# The five standard fillings of shape (3,2), bottom row first.
SHAPE_32_TABLEAUX = {
    ((1, 2, 3), (4, 5)): (4, 5, 1, 2, 3),
    ((1, 2, 4), (3, 5)): (3, 5, 1, 2, 4),
    ((1, 2, 5), (3, 4)): (3, 4, 1, 2, 5),
    ((1, 3, 4), (2, 5)): (2, 5, 1, 3, 4),
    ((1, 3, 5), (2, 4)): (2, 4, 1, 3, 5),
}


def test_tableau_validation():
    Tableau(((1, 2, 3), (4, 5)))
    with pytest.raises(ValueError):
        Tableau(((2, 1),))  # row decreasing
    with pytest.raises(ValueError):
        Tableau(((1, 2), (1,)))  # column not strict
    with pytest.raises(ValueError):
        Tableau(((1,), (2, 3)))  # shape not a partition
    with pytest.raises(ValueError):
        Tableau(((0, 1),))


def test_standard_tableaux_of_shape_32():
    got = standard_tableaux((3, 2))
    assert len(got) == 5
    assert {t.rows for t in got} == set(SHAPE_32_TABLEAUX)
    for t in got:
        assert reading_word(t) == SHAPE_32_TABLEAUX[t.rows]


def test_standard_tableaux_degenerate_shapes():
    assert len(standard_tableaux((4,))) == 1
    assert len(standard_tableaux((2, 2))) == 2
    assert len(standard_tableaux((1, 1, 1))) == 1


def test_reading_word_single_row_is_identity():
    (t,) = standard_tableaux((5,))
    assert reading_word(t) == (1, 2, 3, 4, 5)


def test_reading_word_rejects_non_standard():
    with pytest.raises(ValueError):
        reading_word(Tableau(((1, 1, 2),)))


def test_tableau_is_an_immutable_value():
    t = Tableau(((1, 2), (3,)))
    assert t == Tableau(((1, 2), (3,)))
    assert hash(t) == hash(Tableau(((1, 2), (3,))))
    assert t != Tableau(((1, 3), (2,)))
    assert t != ((1, 2), (3,))
    assert len({t, Tableau(((1, 2), (3,)))}) == 1
    assert repr(t) == "Tableau(rows=((1, 2), (3,)))"
    assert (t.shape, t.size, t.is_standard()) == ((2, 1), 3, True)
    for attempt in (lambda: setattr(t, "rows", ()), lambda: delattr(t, "rows")):
        with pytest.raises(AttributeError):
            attempt()
    with pytest.raises(AttributeError):
        t.extra = 1


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2), (1, 1, 1, 1, 1)) == 5
    for lam in partitions_of(5):
        assert kostka(lam, lam) == 1
    assert kostka((2, 2), (2, 2)) == 1
    assert kostka((2,), (0, 2)) == 1  # weight vectors may contain zeros


def test_kostka_errors():
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1))
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1, -1, 2))


@pytest.mark.parametrize("n", range(1, 7))
def test_kostka_matches_brute_force_and_is_weight_symmetric(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            reference = kostka(lam, mu)
            assert reference == ssyt_count_brute(lam, mu)
            for rearranged in set(permutations(mu)):
                assert kostka(lam, rearranged) == reference


@pytest.mark.parametrize("n", range(1, 7))
def test_kostka_at_standard_weight_counts_standard_tableaux(n):
    for lam in partitions_of(n):
        assert kostka(lam, (1,) * n) == len(standard_tableaux(lam))


def test_descent_set():
    assert descent_set((1, 2, 3)) == ()
    assert descent_set((4, 5, 1, 2, 3)) == (2,)
    assert descent_set((3, 2, 1)) == (1, 2)
    with pytest.raises(ValueError):
        descent_set((1, 1, 2))


def test_inverse_permutation():
    assert inverse_permutation((4, 5, 1, 2, 3)) == (3, 4, 5, 1, 2)
    assert inverse_permutation((1, 2, 3)) == (1, 2, 3)


def test_ides_examples():
    assert ides((1, 2, 3, 4)) == ()
    assert ides((4, 5, 1, 2, 3)) == (3,)
    assert ides((2, 4, 1, 3, 5)) == (1, 3)


def test_ides_matches_brute_force_on_all_of_s4():
    for sigma in permutations(range(1, 5)):
        inv = tuple(sigma.index(v) + 1 for v in range(1, 5))
        expected = tuple(i for i in range(1, 4) if inv[i - 1] > inv[i])
        assert ides(sigma) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_kostka_is_nonzero_exactly_on_the_dominance_order(n):
    # a tableau of shape lam and weight mu exists exactly when mu <= lam
    parts = partitions_of(n)
    for lam in parts:
        for mu in parts:
            assert (kostka(lam, mu) > 0) == dominance_leq(mu, lam)
