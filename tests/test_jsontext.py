"""jsontext.dumps against the standard library's indented encoder."""
import collections
import enum
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqfusion import cli, jsontext
from hqfusion.errors import NonFiniteError


def stdlib(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def outcome(dumps, obj):
    """The text, or the type and message of the error raised."""
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS,
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text())
# str keys mostly; a mix of key types in one dict makes both sides fail alike
KEYS = st.one_of(st.text(max_size=6), st.text(max_size=6), st.integers(),
                 FLOATS, st.booleans(), st.none())
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(FLOATS, max_size=6),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=6),
        st.dictionaries(st.text(max_size=6), inner, max_size=6)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(obj=TREES)
@example(obj={"b": [0.5, -0.0, 1e308, 1e308], "a": {}, "c": [], "d": ()})
@example(obj=[0.5, 1, True, None, "x", [0.25], {"k": 2.0}])
@example(obj={"é": "ü \x00", 2: "two", 1: (1.5, float("inf"))})
@example(obj={None: 1, False: 2.5, 0.5: -0.0})
@example(obj={"x": 1, 2: 3})
@example(obj=[1.0, float("nan")])
# a string equal to the mark that stands in for a Fragment is a string
@example(obj={"a": jsontext._MARK, jsontext._MARK: [1]})
@example(obj=[0.5, jsontext._MARK, {"b": [jsontext._MARK]}])
@example(obj=jsontext._MARK)
def test_dumps_equals_stdlib(obj):
    assert outcome(jsontext.dumps, obj) == outcome(stdlib, obj)


def _indented(sub, level):
    return stdlib(sub).replace("\n", "\n" + "  " * level)


def fragment(sub):
    """A Fragment whose text is the standard library's for sub."""
    return jsontext.Fragment(functools.partial(_indented, sub))


def unwrapped(obj):
    """obj with every Fragment replaced by the tree it renders."""
    if obj.__class__ is jsontext.Fragment:
        return obj.render.args[0]
    if isinstance(obj, dict):
        return {key: unwrapped(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [unwrapped(value) for value in obj]
    return obj


FRAGMENT_TREES = st.recursive(
    st.one_of(SCALARS, TREES.map(fragment)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=5),
        st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(obj=FRAGMENT_TREES)
@example(obj=fragment([1.5, {"a": []}]))
@example(obj={"a": [0.5, fragment({"b": [1.0]})], "c": fragment([])})
@example(obj=[1.0, fragment(float("nan")), float("inf")])
@example(obj=[jsontext._MARK, fragment([jsontext._MARK]), jsontext._MARK])
@example(obj={"a": fragment({"b": 1.5}), "b": jsontext._MARK,
              "c": fragment(jsontext._MARK)})
def test_fragment_written_in_place(obj):
    assert outcome(jsontext.dumps, obj) == outcome(stdlib, unwrapped(obj))


@pytest.mark.parametrize("obj", [
    object(), {1, 2}, b"bytes", 1j, np.int64(3),
    [0.5, object()], {"a": [1.0, 2.0, np.int64(1)]}, {(1, 2): 0.5},
    {"a": {"b": [0.5, {"c": np.bool_(True)}]}},
])
def test_unserialisable_raises_stdlib_type_error(obj):
    with pytest.raises(TypeError) as ours:
        jsontext.dumps(obj)
    with pytest.raises(TypeError) as theirs:
        stdlib(obj)
    assert str(ours.value) == str(theirs.value)


class Text(str):
    pass


class Level(enum.IntEnum):
    LOW = 1


def test_subclasses_written_as_their_base():
    obj = {"a": np.float64(0.1), "b": [0.5, np.float64(-2.5e-300)],
           "c": [np.float64(1.0)], "d": Text("t"), "e": [Level.LOW, Text("u")],
           "f": collections.OrderedDict(z=Level.LOW, y=[Text("v")]),
           Text("g"): {Level.LOW: Level.LOW}}
    assert jsontext.dumps(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [
    {"a": {"b": float("nan")}},
    {"a": [0.5, 1.5, float("inf")]},
    [float("-inf")],
    [1, 2.5, float("nan")],
    {"a": 1, "b": (0.5, float("-inf"))},
    {float("inf"): 1.0},
])
def test_write_json_refuses_non_finite(tmp_path, obj):
    path = tmp_path / "r.json"
    with pytest.raises(NonFiniteError, match="not JSON compliant"):
        cli.write_json(path, obj)
    assert not path.exists()


def test_overflowing_sum_of_finite_floats_is_written(tmp_path):
    obj = {"big": [1e308, 1e308, -math.pi]}
    path = tmp_path / "r.json"
    cli.write_json(path, obj)
    assert path.read_text() == stdlib(obj) + "\n"
