"""Fuzz tests of the graph and poset file parsers: whatever the text, a
parser returns a value or raises ValueError, which the CLI turns into
exit code 2."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from chromsym.graphs import parse_graph_text
from chromsym.posets import parse_poset_text

# Small integers, so that n stays at most 12: a poset parse costs O(n)
# before any cover is read (see ROADMAP item 1, admission).
small_ints = st.integers(-2, 12)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    small_ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["n", "edges", "labels", "covers", "x"]), inner, max_size=4),
    ),
    max_leaves=12,
)
pairs = st.lists(st.one_of(st.lists(small_ints, min_size=0, max_size=3), scalars), max_size=6)
file_objects = st.fixed_dictionaries(
    {"n": st.one_of(small_ints, scalars)},
    optional={"edges": pairs, "covers": pairs, "labels": st.one_of(st.lists(small_ints, max_size=5), scalars)},
)
edge_lines = st.lists(
    st.lists(st.text(alphabet="0123456789-ab² #\t", max_size=3), min_size=0, max_size=3).map(" ".join),
    max_size=6,
).map("\n".join)
texts = st.one_of(
    file_objects.map(json.dumps),
    json_values.map(json.dumps),
    edge_lines,
    st.text(max_size=20),
)

DEEP_OBJECT = '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"
DEEP_LIST = "[" * 100_000 + "]" * 100_000


def _parses_or_raises_value_error(parse, fields, text):
    try:
        parse(text)
    except ValueError:
        return
    # An accepted JSON file holds no field that the parser does not read.
    if parse is parse_poset_text or text.lstrip().startswith("{"):
        assert set(json.loads(text)) <= fields


@settings(max_examples=300, deadline=None)
@given(texts)
@example(DEEP_OBJECT)
@example(DEEP_LIST)
@example('{"n": 3, "covers": [[1, 2], [2, 1]]}')
@example("² 1\n--5 1")
def test_graph_parser_raises_only_value_error(text):
    _parses_or_raises_value_error(parse_graph_text, {"n", "edges", "labels"}, text)


@settings(max_examples=300, deadline=None)
@given(texts)
@example(DEEP_OBJECT)
@example(DEEP_LIST)
@example('{"n": 7, "edges": [[1, 2], [2, 3]]}')
def test_poset_parser_raises_only_value_error(text):
    _parses_or_raises_value_error(parse_poset_text, {"n", "covers"}, text)


@pytest.mark.parametrize("parse", [parse_graph_text, parse_poset_text])
@pytest.mark.parametrize("n, shown", [(-1, "-1"), (True, "true")])
def test_a_json_file_with_a_bad_n_is_named_in_one_message(parse, n, shown):
    with pytest.raises(ValueError) as info:
        parse(json.dumps({"n": n}), source="in.json")
    assert str(info.value) == f"in.json: 'n' must be a nonnegative integer, got {shown}"
