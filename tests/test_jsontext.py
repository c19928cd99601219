"""The indent-2 JSON writer against ``json.dumps``, byte for byte."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanmeta._jsontext import json_text


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


class _Float(float):
    """A float subclass whose own repr both writers must ignore."""

    def __repr__(self):
        return "not a number"


class _Int(int):
    def __repr__(self):
        return "not a number"


# strings with quotes, backslashes, control characters, line separators,
# non-ASCII letters, astral characters and lone surrogates
_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "😀", "\ud800", "\udfff"]),
)
_TEXT = st.text(_CHARS, max_size=8)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    _TEXT,
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    _FLOATS.map(_Float),
    st.integers().map(_Int),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(_FLOATS, min_size=1, max_size=5),  # the all-float join
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(_VALUES)
def test_matches_json_dumps(value):
    assert json_text(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        (),
        [[], {}, ()],
        {"a": [], "b": {}},
        [1, 1.0, 2, 2.5, True, None],
        [1.0, 2.0, _Float(3.5)],
        [0.1, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308],
        {"b": 1, "a": 2, "A": 3, "é": 4, "": 5},
        {1: "int keys", 2: "sorted as numbers", 10: "x"},
        {2.5: "float keys", -1.0: "x"},
        {True: "bool key"},
        {None: "null key"},
        {_Int(3): "an int subclass key"},
    ],
)
def test_matches_json_dumps_on_edge_cases(value):
    assert json_text(value) == _reference(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda x: x,
        lambda x: [1.0, x],
        lambda x: [1, x],
        lambda x: {"k": [x]},
        lambda x: {x: 1},
        lambda x: _Float(x),
    ],
)
def test_non_finite_floats_raise_value_error(bad, wrap):
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text(wrap(bad))


@pytest.mark.parametrize(
    "value, message",
    [
        (object(), "Object of type object is not JSON serializable"),
        ([1.0, {1, 2}], "Object of type set is not JSON serializable"),
        ({"k": b"bytes"}, "Object of type bytes is not JSON serializable"),
        ({(1, 2): 3}, "keys must be str, int, float, bool or None, not tuple"),
    ],
)
def test_other_types_raise_type_error(value, message):
    with pytest.raises(TypeError, match=message):
        json_text(value)
    with pytest.raises(TypeError, match=message):
        _reference(value)
