from collections import Counter
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from chromsym.partitions import partitions_of
from chromsym.symfunc import (
    QuasisymmetricF,
    QuasisymmetricM,
    SymmetricFunctionM,
    canonical_items,
    collapse_t,
    is_symmetric,
    m_to_e,
    m_to_s,
    qsym_M_to_F,
)
from chromsym.tpoly import TPoly
from chromsym.chromatic import (
    cqf_fundamental_via_orientations,
    cqf_monomial,
    csf_monomial,
    hook_coefficients_via_orientations_t,
)
from chromsym.graphs import Graph, Labeling, complete_graph, edgeless_graph, path_graph
from chromsym.symfunc import _schur_h_table, _terms_json
from oracles import (
    all_graphs,
    compositions_of,
    descents_from_composition,
    elementary_m_expansion,
    fundamental_monomials,
    gessel_schur_F,
    hook_coefficient_of_F,
    is_symmetric_by_permutations,
    m_to_e_by_kostka,
    m_to_e_by_matrix,
    m_to_s_by_kostka,
    monomial_basis_monomials,
    monomial_to_quasi,
    qsym_F_to_M,
    qsym_M_to_F_by_refinement,
    schur_m_expansion,
    seeded_graphs,
    specialize_w_k,
)

# Chromatic monomial coordinates used as fixed inputs: the claw K_{1,3},
# the edgeless 3-vertex graph, the 3-path, and the triangle.
CLAW_M = SymmetricFunctionM(4, {(3, 1): 1, (2, 1, 1): 6, (1, 1, 1, 1): 24})
EDGELESS3_M = SymmetricFunctionM(3, {(3,): 1, (2, 1): 3, (1, 1, 1): 6})
P3_M = SymmetricFunctionM(3, {(2, 1): 1, (1, 1, 1): 6})
K3_M = SymmetricFunctionM(3, {(1, 1, 1): 6})


def test_value_types_drop_zeros_and_validate():
    f = SymmetricFunctionM(3, {(2, 1): 0, (3,): 2})
    assert f.coeffs == {(3,): 2}
    with pytest.raises(ValueError):
        SymmetricFunctionM(3, {(2, 2): 1})
    g = QuasisymmetricM(2, {(1, 1): TPoly(), (2,): 3})
    assert g.coeffs == {(2,): TPoly((3,))}
    with pytest.raises(ValueError):
        QuasisymmetricF(2, {(3,): 1})


def test_value_types_name_a_key_of_the_wrong_weight():
    with pytest.raises(ValueError) as info:
        SymmetricFunctionM(3, {(2, 2): 1})
    assert str(info.value) == "key (2, 2) is not a partition of 3"
    for cls in (QuasisymmetricM, QuasisymmetricF):
        with pytest.raises(ValueError) as info:
            cls(2, {(3,): 1})
        assert str(info.value) == "key (3,) is not a composition of 2"


def test_m_to_s_on_claw_and_edgeless():
    assert m_to_s(CLAW_M) == {(3, 1): 1, (2, 2): -1, (2, 1, 1): 5, (1, 1, 1, 1): 8}
    assert m_to_s(EDGELESS3_M) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


@pytest.mark.parametrize("n", range(0, 11))
def test_m_to_s_round_trip_on_schur_rows(n):
    for lam in partitions_of(n):
        f = schur_m_expansion({lam: 1}, n)
        assert m_to_s(f) == {lam: 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_m_to_e_round_trip_on_elementary_rows(n):
    for mu in partitions_of(n):
        f = elementary_m_expansion({mu: 1}, n)
        assert m_to_e(f) == {mu: 1}


@pytest.mark.parametrize("n", range(0, 9))
def test_m_to_e_matches_the_matrix_solve_on_elementary_rows(n):
    for mu in partitions_of(n):
        f = elementary_m_expansion({mu: 1}, n)
        assert m_to_e(f) == m_to_e_by_matrix(f) == {mu: 1}


def test_m_to_e_matches_the_matrix_solve_on_seeded_graphs():
    for g in seeded_graphs(10, seed=14, sizes=(6, 7, 8, 9, 10)):
        f = csf_monomial(g)
        assert m_to_e(f) == m_to_e_by_matrix(f)


def test_jacobi_trudi_table_examples():
    # s_(1,1) = h_1^2 - h_2, s_(2,1) = h_2 h_1 - h_3, s_(1,1,1) = det of
    # the 3x3 Jacobi-Trudi matrix of the column shape.
    table = _schur_h_table(3)
    assert list(table) == list(partitions_of(3))
    assert dict(table[(3,)]) == {(3,): 1}
    assert dict(table[(2, 1)]) == {(2, 1): 1, (3,): -1}
    assert dict(table[(1, 1, 1)]) == {(1, 1, 1): 1, (2, 1): -2, (3,): 1}
    assert dict(_schur_h_table(2)[(1, 1)]) == {(1, 1): 1, (2,): -1}
    assert _schur_h_table(0) == {(): (((), 1),)}


def _assert_matches_the_kostka_solve(f):
    # Equal as dicts and in key order: m_to_s descending, m_to_e ascending.
    for new, old in ((m_to_s(f), m_to_s_by_kostka(f)), (m_to_e(f), m_to_e_by_kostka(f))):
        assert new == old
        assert list(new) == list(old)


@pytest.mark.parametrize("n", range(0, 6))
def test_conversions_match_the_kostka_solve_on_every_small_graph(n):
    for g in all_graphs(n):
        _assert_matches_the_kostka_solve(csf_monomial(g))


def test_conversions_match_the_kostka_solve_on_seeded_and_twelve_vertex_graphs():
    cycle10 = Graph(10, [(v, v % 10 + 1) for v in range(1, 11)])
    graphs = [*seeded_graphs(10, seed=23, sizes=(6, 7, 8, 9, 10)), path_graph(12), edgeless_graph(12), cycle10]
    for g in graphs:
        _assert_matches_the_kostka_solve(csf_monomial(g))


def test_m_to_e_on_chromatic_inputs():
    assert m_to_e(P3_M) == {(3,): 3, (2, 1): 1}
    assert m_to_e(K3_M) == {(3,): 6}


@pytest.mark.parametrize("n", range(1, 6))
def test_basis_changes_invert_on_random_like_inputs(n):
    # every partition with a distinct small coefficient
    coeffs = {lam: i + 1 for i, lam in enumerate(partitions_of(n))}
    f = schur_m_expansion(coeffs, n)
    assert m_to_s(f) == coeffs
    g = elementary_m_expansion(coeffs, n)
    assert m_to_e(g) == coeffs


def test_qsym_conversion_examples():
    k2 = QuasisymmetricM(2, {(1, 1): TPoly((1, 1))})
    assert qsym_M_to_F(k2).coeffs == {(1, 1): TPoly((1, 1))}
    single = QuasisymmetricM(3, {(3,): 1})
    assert qsym_F_to_M(qsym_M_to_F(single)) == single


@st.composite
def qsym_m_strategy(draw):
    n = draw(st.integers(1, 6))
    comps = compositions_of(n)
    picked = draw(st.lists(st.sampled_from(comps), min_size=1, max_size=4, unique=True))
    coeffs = {}
    for alpha in picked:
        poly = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
        coeffs[alpha] = TPoly(poly)
    return QuasisymmetricM(n, coeffs)


@settings(max_examples=200)
@given(qsym_m_strategy())
def test_qsym_round_trip(f):
    assert qsym_F_to_M(qsym_M_to_F(f)) == f


@pytest.mark.parametrize("n", range(9))
def test_qsym_conversions_on_random_coefficients(n):
    # zero and negative coefficients included, both within a polynomial
    # and as a whole polynomial
    rng = Random(n)
    comps = compositions_of(n)
    for _ in range(6):
        picked = rng.sample(comps, rng.randint(0, len(comps)))
        coeffs = {a: TPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]) for a in picked}
        f = QuasisymmetricM(n, coeffs)
        converted = qsym_M_to_F(f)
        assert converted == qsym_M_to_F_by_refinement(f)
        assert qsym_F_to_M(converted) == f
        g = QuasisymmetricF(n, coeffs)
        assert qsym_M_to_F(qsym_F_to_M(g)) == g


def _assert_kernel_values_are_valid_and_M_to_F_matches_the_oracle(g, zeta=None):
    m_value = cqf_monomial(g, zeta)
    converted = qsym_M_to_F(m_value)
    assert converted == qsym_M_to_F_by_refinement(m_value)
    # values built without checks pass the public constructors unchanged
    polys = list(hook_coefficients_via_orientations_t(g, zeta))
    for value in (m_value, converted, qsym_F_to_M(converted), cqf_fundamental_via_orientations(g, zeta)):
        assert type(value)(value.degree, value.coeffs) == value
        polys.extend(value.coeffs.values())
    for poly in polys:
        assert type(poly.coeffs) is tuple and all(type(c) is int for c in poly.coeffs)
        assert poly == TPoly(poly.coeffs)
        assert poly.coeffs == TPoly(poly.coeffs).coeffs


@pytest.mark.parametrize("n", range(6))
def test_M_to_F_matches_the_refinement_oracle_on_every_small_graph(n):
    for g in all_graphs(n):
        _assert_kernel_values_are_valid_and_M_to_F_matches_the_oracle(g)
        _assert_kernel_values_are_valid_and_M_to_F_matches_the_oracle(g, Labeling(range(n, 0, -1)))


def test_M_to_F_matches_the_refinement_oracle_on_seeded_graphs_and_k7():
    for g in [*seeded_graphs(6, seed=21), complete_graph(7)]:
        _assert_kernel_values_are_valid_and_M_to_F_matches_the_oracle(g)


def test_qsym_conversion_against_monomial_expansion():
    # (1+t) M_(1,1) and (1+t) F_(1,1) expand identically over 3 variables
    f = qsym_M_to_F(QuasisymmetricM(2, {(1, 1): TPoly((1, 1))}))
    total = Counter()
    for alpha, poly in f.coeffs.items():
        weight = poly.subs(1)
        for expo, mult in fundamental_monomials(
            descents_from_composition(alpha), 2, 3
        ).items():
            total[expo] += weight * mult
    direct = Counter()
    for expo, mult in monomial_basis_monomials((1, 1), 3).items():
        direct[expo] += 2 * mult
    assert +total == +direct


def test_is_symmetric():
    assert not is_symmetric(QuasisymmetricM(3, {(2, 1): 1}))
    assert is_symmetric(QuasisymmetricM(3, {(2, 1): 1, (1, 2): 1}))
    assert is_symmetric(QuasisymmetricM(3, {}))
    assert not is_symmetric(QuasisymmetricM(3, {(2, 1): 1, (1, 2): TPoly((0, 1))}))



@pytest.mark.parametrize("n", range(0, 7))
def test_is_symmetric_agrees_with_the_permutation_oracle(n):
    rearranged = QuasisymmetricM(4, {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1})
    missing = QuasisymmetricM(4, {(2, 1, 1): 1, (1, 2, 1): 1})
    unequal = QuasisymmetricM(4, {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 2})
    assert [is_symmetric(f) for f in (rearranged, missing, unequal)] == [True, False, False]
    assert [is_symmetric_by_permutations(f) for f in (rearranged, missing, unequal)] == [True, False, False]
    rng = Random(n)
    answers = set()
    for _ in range(60):
        coeffs = {}
        for lam in partitions_of(n):  # each partition in or out, with all its rearrangements
            if rng.random() < 0.5:
                c = TPoly((rng.randint(1, 3), rng.randint(0, 1)))
                coeffs.update(dict.fromkeys(permutations(lam), c))
        if coeffs:  # then perhaps drop one composition, or change its coefficient
            alpha = rng.choice(sorted(coeffs))
            action = rng.randrange(3)
            if action == 1:
                del coeffs[alpha]
            elif action == 2:
                coeffs[alpha] = coeffs[alpha] + TPoly((1,))
        f = QuasisymmetricM(n, coeffs)
        answers.add(is_symmetric(f))
        assert is_symmetric(f) == is_symmetric_by_permutations(f)
    assert answers == ({True, False} if n > 2 else {True})  # below 3 every partition has one rearrangement

def test_collapse_t():
    f = QuasisymmetricF(2, {(1, 1): TPoly((1, 1))})
    assert collapse_t(f).coeffs == {(1, 1): TPoly((2,))}
    assert collapse_t(QuasisymmetricF(2, {})).coeffs == {}
    g = QuasisymmetricF(3, {(1, 1, 1): TPoly((0, 0, 1))})
    assert collapse_t(g).coeffs == {(1, 1, 1): TPoly((1,))}


def test_specialize_w_k_on_the_3_path():
    assert specialize_w_k(P3_M, 0) == 0
    assert specialize_w_k(P3_M, 1) == 0
    assert specialize_w_k(P3_M, 2) == 2
    assert specialize_w_k(P3_M, 3) == 12
    with pytest.raises(ValueError):
        specialize_w_k(P3_M, -1)


def test_specialize_w_k_is_polynomial_of_the_right_degree():
    # finite differences of order n+1 vanish, order n does not
    for f in (P3_M, CLAW_M, EDGELESS3_M):
        n = f.degree
        values = [specialize_w_k(f, k) for k in range(n + 3)]
        diffs = values
        for _ in range(n):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert any(diffs)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert not any(diffs)


def test_hook_coefficient_of_F():
    k2 = QuasisymmetricF(2, {(1, 1): TPoly((1, 1))})
    assert hook_coefficient_of_F(k2, 1) == TPoly((1, 1))
    assert hook_coefficient_of_F(k2, 2) == TPoly()
    f = QuasisymmetricF(3, {(3,): TPoly((7,))})
    assert hook_coefficient_of_F(f, 3) == 7
    with pytest.raises(ValueError):
        hook_coefficient_of_F(k2, 3)


def test_gessel_schur_F_degenerate_shapes():
    assert gessel_schur_F((4,)).coeffs == {(4,): TPoly((1,))}
    assert gessel_schur_F((1, 1, 1)).coeffs == {(1, 1, 1): TPoly((1,))}


def test_gessel_schur_F_shape_32():
    f = gessel_schur_F((3, 2))
    assert f.coeffs == {
        (3, 2): TPoly((1,)),
        (2, 2, 1): TPoly((1,)),
        (2, 3): TPoly((1,)),
        (1, 3, 1): TPoly((1,)),
        (1, 2, 2): TPoly((1,)),
    }


@pytest.mark.parametrize("n", range(1, 6))
def test_gessel_expansion_matches_kostka_monomials(n):
    from chromsym.tableaux import kostka

    for lam in partitions_of(n):
        f = gessel_schur_F(lam)
        via_f = Counter()
        for alpha, poly in f.coeffs.items():
            for expo, mult in fundamental_monomials(
                descents_from_composition(alpha), n, n
            ).items():
                via_f[expo] += poly.subs(1) * mult
        via_m = Counter()
        for mu in partitions_of(n):
            for expo, mult in monomial_basis_monomials(mu, n).items():
                via_m[expo] += kostka(lam, mu) * mult
        assert +via_f == +via_m


def test_monomial_to_quasi():
    q = monomial_to_quasi(SymmetricFunctionM(3, {(2, 1): 5}))
    assert q.coeffs == {(2, 1): TPoly((5,)), (1, 2): TPoly((5,))}
    assert is_symmetric(q)


def test_serialization_is_canonical_and_deterministic():
    # the terms as the CLI writes them: canonical_items, then _terms_json
    f = SymmetricFunctionM(4, {(2, 1, 1): 5, (3, 1): 1, (2, 2): -1, (1, 1, 1, 1): 8})
    terms = _terms_json(canonical_items(f))
    assert terms == _terms_json(
        canonical_items(SymmetricFunctionM(4, {(1, 1, 1, 1): 8, (2, 2): -1, (3, 1): 1, (2, 1, 1): 5}))
    )
    assert terms == [[[3, 1], [1]], [[2, 2], [-1]], [[2, 1, 1], [5]], [[1, 1, 1, 1], [8]]]
    g = QuasisymmetricF(2, {(1, 1): TPoly((1, 1))})
    assert _terms_json(canonical_items(g)) == [[[1, 1], [1, 1]]]
    assert [key for key, _ in canonical_items(f)] == sorted(f.coeffs, reverse=True)
