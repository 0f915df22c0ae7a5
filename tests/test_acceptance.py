"""End-to-end acceptance checks.

Each numbered criterion runs at its stated (exact) tolerance and prints
one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
to watch them go by.  The heavyweight 6-vertex sweep is shared between
the two criteria that need it.
"""

import json
import random
import subprocess
import sys
import time
from itertools import permutations
from math import comb

import pytest

from chromsym.chromatic import (
    cqf_fundamental_via_orientations,
    cqf_monomial,
    csf_schur,
    dual_linear_extensions,
    e_sums_by_length,
    hook_coefficients_via_orientations_t,
    hook_coefficient_via_sinks,
    orientations_by_sinks,
    sink_minimal_increasing_labeling,
)
from chromsym.graphs import (
    Labeling,
    Orientation,
    acyclic_orientations,
    is_claw_free,
    path_graph,
    reference_orientation,
    star_graph,
    edgeless_graph,
)
from chromsym.partitions import (
    hook_partition,
    partitions_of,
)
from chromsym.posets import all_posets, count_p_tableaux_hooks, incomparability_graph, incomparability_schur_hooks
from chromsym.symfunc import (
    QuasisymmetricM,
    qsym_M_to_F,
)
from chromsym.tableaux import kostka
from chromsym.tpoly import TPoly
from oracles import (
    all_graphs,
    chromatic_polynomial_value,
    compositions_of,
    descent_set,
    descents_from_composition,
    fundamental_monomials,
    gessel_schur_F,
    hook_coefficient_of_F,
    monomial_basis_monomials,
    proper_colorings_bounded,
    qsym_F_to_M,
)

CLAW_JSON = '{"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]}'


def _report(number: int, description: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{verdict}] {description} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def six_vertex_sweep():
    """One pass over every labeled graph with n <= 6: Schur hooks versus
    the sink formula, and the elementary/sink identity."""
    hook_failures = 0
    esink_failures = 0
    started = time.perf_counter()
    elapsed_to_5 = None
    for n in range(1, 7):
        if n == 6:
            elapsed_to_5 = time.perf_counter() - started
        for g in all_graphs(n):
            schur = csf_schur(g)
            for k in range(1, n + 1):
                if schur.get(hook_partition(n, k), 0) != hook_coefficient_via_sinks(g, k):
                    hook_failures += 1
            if orientations_by_sinks(g) != e_sums_by_length(g):
                esink_failures += 1
    return {
        "hook_failures": hook_failures,
        "esink_failures": esink_failures,
        "elapsed_to_5": elapsed_to_5,
        "elapsed": time.perf_counter() - started,
    }


def test_criterion_1_golden_schur_expansions():
    started = time.perf_counter()
    claw_ok = csf_schur(star_graph(3)) == {
        (3, 1): 1,
        (2, 2): -1,
        (2, 1, 1): 5,
        (1, 1, 1, 1): 8,
    }
    edgeless_ok = csf_schur(edgeless_graph(3)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    elapsed = time.perf_counter() - started
    _report(1, "golden Schur expansions, exact", claw_ok and edgeless_ok and elapsed < 1.0, elapsed)


def test_criterion_2_chromatic_specialization():
    started = time.perf_counter()
    p3 = path_graph(3)
    ok = [chromatic_polynomial_value(p3, k) for k in range(4)] == [0, 0, 2, 12]
    for n in range(1, 6):
        for g in all_graphs(n):
            for k in range(6):
                direct = sum(1 for _ in proper_colorings_bounded(g, k)) if k else 0
                if chromatic_polynomial_value(g, k) != direct:
                    ok = False
    elapsed = time.perf_counter() - started
    _report(2, "chromatic specialization vs bounded colorings, n<=5", ok and elapsed < 10.0, elapsed)


def test_criterion_3_hook_coefficients_via_sinks(six_vertex_sweep):
    ok = (
        six_vertex_sweep["hook_failures"] == 0
        and six_vertex_sweep["elapsed_to_5"] < 30.0
        and six_vertex_sweep["elapsed"] < 600.0
    )
    _report(
        3,
        "Schur hook coefficients equal binomial-weighted sink counts, n<=6",
        ok,
        six_vertex_sweep["elapsed"],
    )


def test_criterion_4_hook_t_polynomials_all_labelings():
    started = time.perf_counter()
    failures = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            for perm in permutations(range(1, n + 1)):
                below = reference_orientation(g, Labeling(perm))
                direct = cqf_fundamental_via_orientations(g, below)
                converted = qsym_M_to_F(cqf_monomial(g, below))
                sums = hook_coefficients_via_orientations_t(g, below)
                for k in range(1, n + 1):
                    a = hook_coefficient_of_F(direct, k)
                    b = sums[k - 1]
                    c = hook_coefficient_of_F(converted, k)
                    if not (a == b == c):
                        failures += 1
    elapsed = time.perf_counter() - started
    _report(
        4,
        "hook t-polynomials agree along all three routes, n<=5, all labelings",
        failures == 0 and elapsed < 600.0,
        elapsed,
    )


def test_criterion_5_extension_descent_counts():
    started = time.perf_counter()
    failures = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            for o in acyclic_orientations(g):
                omega = sink_minimal_increasing_labeling(o)
                words = dual_linear_extensions(o, omega)
                s = o.sinks()
                for k in range(1, n + 1):
                    target = tuple(range(1, n - k + 1))
                    hits = sum(1 for w in words if descent_set(w) == target)
                    if hits != comb(s - 1, k - 1):
                        failures += 1
    elapsed = time.perf_counter() - started
    _report(
        5,
        "per-orientation descent-set counts match binomials, n<=5",
        failures == 0,
        elapsed,
    )


def test_criterion_6_elementary_sink_identity(six_vertex_sweep):
    _report(
        6,
        "sink counts equal length-graded elementary sums, n<=6",
        six_vertex_sweep["esink_failures"] == 0,
        six_vertex_sweep["elapsed"],
    )


def test_criterion_7_hook_tableaux_for_all_small_posets():
    started = time.perf_counter()
    failures = 0
    clawed = 0
    for n in range(1, 6):
        for poset in all_posets(n):
            if count_p_tableaux_hooks(poset) != incomparability_schur_hooks(poset):
                failures += 1
            elif not is_claw_free(incomparability_graph(poset)):
                clawed += 1
    elapsed = time.perf_counter() - started
    _report(
        7,
        f"hook tableau counts match Schur hooks for all posets on <=5 elements "
        f"({clawed} with clawed incomparability graphs)",
        failures == 0 and clawed > 0,
        elapsed,
    )


def test_criterion_8_fundamental_expansion_of_schur():
    started = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for lam in partitions_of(n):
            f = gessel_schur_F(lam)
            via_f: dict = {}
            for alpha, poly in f.coeffs.items():
                for expo, mult in fundamental_monomials(
                    descents_from_composition(alpha), n, n
                ).items():
                    via_f[expo] = via_f.get(expo, 0) + poly.subs(1) * mult
            via_m: dict = {}
            for mu in partitions_of(n):
                coeff = kostka(lam, mu)
                if coeff == 0:
                    continue
                for expo, mult in monomial_basis_monomials(mu, n).items():
                    via_m[expo] = via_m.get(expo, 0) + coeff * mult
            if via_f != via_m:
                ok = False
    elapsed = time.perf_counter() - started
    _report(8, "fundamental expansion of Schur matches Kostka monomials, n<=6", ok, elapsed)


def test_criterion_9_oriented_4_path_extensions():
    started = time.perf_counter()
    o = Orientation(path_graph(4), [(2, 1), (2, 3), (3, 4)])
    omega = sink_minimal_increasing_labeling(o)
    words = {"".join(map(str, w)) for w in dual_linear_extensions(o, omega)}
    ok = words == {"4321", "4312", "4132"} and omega.labels == (1, 4, 3, 2)
    elapsed = time.perf_counter() - started
    _report(9, "oriented 4-path reproduces extensions 4321, 4312, 4132", ok, elapsed)


def test_criterion_10_round_trips_and_determinism(tmp_path):
    started = time.perf_counter()
    rng = random.Random(20260811)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 7)
        comps = compositions_of(n)
        picked = rng.sample(comps, k=min(len(comps), rng.randint(1, 5)))
        coeffs = {
            alpha: TPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            for alpha in picked
        }
        f = QuasisymmetricM(n, coeffs)
        if qsym_F_to_M(qsym_M_to_F(f)) != f:
            ok = False

    path = tmp_path / "claw.json"
    path.write_text(CLAW_JSON)
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "chromsym", "cqf", str(path), "--json", "--verbose"],
            capture_output=True,
        )
        ok = ok and result.returncode == 0
        outputs.append(result.stdout)
    ok = ok and outputs[0] == outputs[1] and len(outputs[0]) > 0
    elapsed = time.perf_counter() - started
    _report(10, "1000 M<->F round trips and byte-identical CLI reruns", ok, elapsed)


def test_all_criteria_summary(six_vertex_sweep):
    # runs last: the shared sweep has been consumed by then
    print(
        f"full 6-vertex sweep: {six_vertex_sweep['elapsed']:.1f}s "
        f"(n<=5 portion {six_vertex_sweep['elapsed_to_5']:.1f}s)"
    )
