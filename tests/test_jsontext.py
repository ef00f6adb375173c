"""`dumps_indented` writes exactly the text of `json.dumps(v, indent=2)`."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit.jsontext import IndentedEncoder, dumps_indented

SCALARS = (st.none() | st.booleans()
           | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
           | st.floats() | st.text())
KEYS = (st.text() | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
        | st.floats() | st.booleans() | st.none())
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_matches_json_dumps(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, [[[]]],
    "café ☃ \U0001f600 \x00\x1f\"\\", float("nan"),
    [float("inf"), -float("inf"), -0.0, 1e-320],
    {1: 0, 2.5: 1, True: 2, False: 3, None: 4, float("nan"): 5,
     float("inf"): 6},
    (1, (2, (3,))), np.float64(2.5), [np.float64(1e300), np.float64("nan")],
    2 ** 100, -2 ** 100, {"x": {"y": [1, 2.0, "s", None, True]}},
], ids=repr)
def test_edge_cases(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


def _nested_lists_text(depth: int) -> str:
    """The indented text of ``depth`` lists nested around 0."""
    opens = "".join("  " * i + "[\n" for i in range(depth))
    closes = "".join("\n" + "  " * i + "]" for i in reversed(range(depth)))
    return opens + "  " * depth + "0" + closes


def test_nesting_is_not_bounded_by_the_recursion_limit():
    def nest(depth):
        value = 0
        for _ in range(depth):
            value = [value]
        return value

    assert _nested_lists_text(3) == json.dumps(nest(3), indent=2)
    assert dumps_indented(nest(5000)) == _nested_lists_text(5000)


@pytest.mark.parametrize("value", [
    object(), [1, {2}], {"a": 1j}, np.int64(3), {(1, 2): 0}, {"k": {b"x": 1}},
], ids=["object", "set", "complex", "np.int64", "tuple-key", "bytes-key"])
def test_unsupported_values_and_keys_raise_as_json_does(value):
    with pytest.raises(TypeError) as ours:
        dumps_indented(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(theirs.value)


def test_cycle_raises_as_json_does():
    cycle: list = [1]
    cycle.append({"again": cycle})
    with pytest.raises(ValueError, match="Circular reference detected"):
        dumps_indented(cycle)
    with pytest.raises(ValueError, match="Circular reference detected"):
        json.dumps(cycle, indent=2)
    shared = [1]
    assert dumps_indented([shared, shared]) == json.dumps([shared, shared],
                                                         indent=2)


def test_json_dumps_reaches_the_emitter():
    value = {"root": [1.5, {"k": "v"}], "n": None}
    assert json.dumps(value, indent=2, cls=IndentedEncoder) \
        == json.dumps(value, indent=2)
