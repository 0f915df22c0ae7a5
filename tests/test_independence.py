"""The values a check compares come from routes that stay apart, as traced.

Each value of a check has one reader in ``cli.CHECKS``.  Every reader runs
here under ``sys.setprofile`` on fresh inputs, with every ``lru_cache``
and every kernel store of the package emptied first, and the functions of
the package it enters are recorded, keyed by their code objects.  Two
values may share the helpers of ``ALLOWED``, each kept for the reason
given.  Outside those, every check needs two values that share nothing,
and what values share today is the data of ``KNOWN_SHARING``, exactly: a
kernel that starts to serve two values of a check, or stops, fails here.

    PYTHONPATH=src python tests/test_independence.py

prints what each pair of values shares.
"""

import sys
import types
from itertools import combinations

import pytest

from chromsym import chromatic, cli
from chromsym.graphs import Graph, Labeling, reference_orientation
from chromsym.posets import Poset

MODULES = [module for name, module in sorted(sys.modules.items()) if name.startswith("chromsym.")]
SOURCES = {module.__file__: module.__name__.rpartition(".")[2] for module in MODULES}  # file -> short name

# (n, edges, labels or None)
GRAPHS = [
    (6, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (2, 6)], (3, 1, 4, 6, 2, 5)),
    (6, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (2, 6)], None),
    (4, [(1, 2), (1, 3), (1, 4)], (2, 1, 4, 3)),
    (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], None),
    (3, [], None),
]
# (n, covers)
POSETS = [
    (5, [(1, 3), (2, 3), (3, 4), (3, 5)]),
    (4, [(1, 2), (2, 3)]),
    (3, []),
]

INPUT = "input representation: read off the graph, labeling or poset given, and kept with it"
KEY_RULE = (
    "the store key rule: a key names the induced sub-structure, never a route's state; "
    "tests/test_stores.py checks that no key merges or splits states, since a collision "
    "would corrupt both routes at once"
)
TABLE = "a table that depends on n alone, not on the graph"
VALUE = "builds a returned value from finished coefficients"
ALLOWED = {
    "graphs.Graph.__hash__": "hashes the input graph for an lru_cache key",
    "graphs.Graph.adjacency_masks": INPUT,
    "posets.Poset.below_masks": INPUT + ": the order's transpose",
    "graphs._transpose": INPUT + ": it reverses a relation held as bitmasks",
    "graphs._shared_states": KEY_RULE,
    "graphs._relation_bits": KEY_RULE,
    "graphs._subset_pair_masks": KEY_RULE,
    "graphs._pair_mask": KEY_RULE,
    "partitions._hooks": TABLE,
    "partitions.hook_partition": TABLE + ": the hooks",
    "partitions._binomials": TABLE,
    "partitions.partitions_of": TABLE,
    "partitions.partitions_of.rec": TABLE + ": the partitions",
    "partitions._partitions_by_code": TABLE + ": the partitions of n by type code",
    "partitions._multiplicity_factorials": TABLE + ": the orders of equal parts, per partition",
    "tpoly.TPoly._trusted": VALUE,
    "tpoly._normalize": VALUE,
    "symfunc._CoefficientMap._trusted": VALUE,
}

# What two values of a check share outside ALLOWED today; every other pair
# shares nothing.  ROADMAP item 7 gives this pair a route of its own.
KNOWN_SHARING = {
    # kostka reads back the expansion that schur reads: it checks m_to_s
    ("hook-1", "schur", "kostka"): {
        "chromatic.csf_schur",
        "chromatic.csf_monomial",
        "graphs.stable_partitions_by_type",
        "graphs.stable_partitions_by_type.g",
        "symfunc.m_to_s",
        "symfunc._schur_h_table",
        "symfunc._schur_h_table.expand",
    },
}


def _code_names() -> dict[types.CodeType, str]:
    """module.qualname of every function and method that the package
    defines, nested functions included, keyed by code object; a code
    object carries no qualified name of its own before Python 3.11."""
    names = {}

    def visit(code: types.CodeType, name: str) -> None:
        names[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                visit(const, f"{name}.{const.co_name}")

    for module in MODULES:
        for value in vars(module).values():
            members = [value]
            if isinstance(value, type) and value.__module__ == module.__name__:
                members += vars(value).values()
            for member in members:
                member = getattr(member, "fget", member)  # a property
                member = getattr(member, "__func__", member)  # a classmethod or staticmethod
                member = getattr(member, "__wrapped__", member)  # an lru_cache
                code = getattr(member, "__code__", None)
                if code is not None and code.co_filename in SOURCES:
                    visit(code, f"{SOURCES[code.co_filename]}.{member.__qualname__}")
    return names


CODE_NAMES = _code_names()  # built before any test replaces a binding


def _clear_caches_and_stores() -> None:
    for module in MODULES:
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif isinstance(value, dict) and name.startswith("_") and name.isupper():
                value.clear()  # a kernel store, such as chromatic._STATES


def traced(call) -> set[str]:
    """The functions of the package that call enters, from empty caches
    and stores; lambdas and comprehensions count as the code around them."""
    _clear_caches_and_stores()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    ours = {code for code in entered if code.co_filename in SOURCES and not code.co_name.startswith("<")}
    unnamed = [f"{code.co_filename}:{code.co_firstlineno}" for code in ours if code not in CODE_NAMES]
    assert not unnamed, f"traced functions with no name: {unnamed}"
    return {CODE_NAMES[code] for code in ours}


def _fresh_inputs(check: cli.Check) -> list[tuple]:
    """(target, below) pairs built anew, so that no graph or poset brings in
    a value that an earlier trace left in it.  A graph's reference
    orientation is built here, outside the trace, as the CLI builds it
    where it reads the input."""
    if check.on_posets:
        return [(Poset.from_covers(n, covers), None) for n, covers in POSETS]
    graphs = [(Graph(n, edges), Labeling(labels) if labels else None) for n, edges, labels in GRAPHS]
    return [(graph, reference_orientation(graph, zeta)) for graph, zeta in graphs]


def traced_values() -> dict[str, dict[str, set[str]]]:
    """check -> value -> the functions its reader enters on any input."""
    out = {}
    for name, check in cli.CHECKS.items():
        out[name] = {}
        for value, read in check.readers.items():
            out[name][value] = set()
            for target, below in _fresh_inputs(check):
                out[name][value] |= traced(lambda: read(target, below))
    return out


def shared(values: dict[str, dict[str, set[str]]]) -> dict[tuple[str, str, str], set[str]]:
    """(check, value, value) -> what the two values share outside ALLOWED."""
    return {
        (name, a, b): (by_value[a] & by_value[b]) - ALLOWED.keys()
        for name, by_value in values.items()
        for a, b in combinations(by_value, 2)
    }


def gate_failures(values: dict[str, dict[str, set[str]]]) -> list[str]:
    problems = []
    overlaps = shared(values)
    for name in values:
        if all(common for (check, *_), common in overlaps.items() if check == name):
            problems.append(f"{name}: every two values share a function outside the allowlist")
    for pair, common in overlaps.items():
        known = KNOWN_SHARING.get(pair, set())
        if common != known:
            problems.append(f"{' '.join(pair)}: share {sorted(common)}, known {sorted(known)}")
    return problems


@pytest.fixture(scope="module")
def values():
    return traced_values()


def test_the_routes_of_every_check_stay_apart(values):
    assert gate_failures(values) == []


def test_every_allowed_helper_is_a_function_that_two_values_share(values):
    # an entry for a helper that was renamed, or that no pair shares any
    # more, would let a later kernel by that name through unseen
    assert set(ALLOWED) <= set(CODE_NAMES.values())
    pairs = [(by_value[a], by_value[b]) for by_value in values.values() for a, b in combinations(by_value, 2)]
    assert set(ALLOWED) - set().union(*(a & b for a, b in pairs)) == set()


# Readers replaced by ones that give the right values through another
# route's kernel, until every two values of the check share one: the sink
# counts read back from the e-expansion, and the coloring route's and the
# sink kernel's hook polynomials both read off the walk.
CROSSED = {
    "e-sink": [("orientations_by_sinks", lambda graph: chromatic.e_sums_by_length(graph))],
    "hook-t": [
        ("hook_coefficients_via_colorings_t", lambda *args: chromatic.hook_coefficients_via_extensions_t(*args)),
        ("hook_coefficients_via_orientations_t", lambda *args: chromatic.hook_coefficients_via_extensions_t(*args)),
    ],
}


@pytest.mark.parametrize("check", sorted(CROSSED))
def test_the_gate_fails_when_a_reader_calls_the_other_routes_kernel(monkeypatch, check):
    for name, reader in CROSSED[check]:
        monkeypatch.setattr(chromatic, name, reader)
    problems = gate_failures(traced_values())
    assert problems
    assert all(problem.startswith(check) for problem in problems)
    assert f"{check}: every two values share a function outside the allowlist" in problems


if __name__ == "__main__":
    traced_sets = traced_values()
    for (name, a, b), common in shared(traced_sets).items():
        allowed = sorted(traced_sets[name][a] & traced_sets[name][b] & ALLOWED.keys())
        print(f"{name}  {a} / {b}")
        print(f"  shared: {', '.join(sorted(common)) or '(nothing)'}")
        print(f"  allowed: {', '.join(allowed) or '(nothing)'}")
    problems = gate_failures(traced_sets)
    print("\n".join(problems) or "gate: ok")
    sys.exit(1 if problems else 0)
