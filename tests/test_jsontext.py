"""jsontext.dumps against the standard library's indented encoder."""
import collections
import enum
import functools
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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


def leftovers(directory, *keep):
    return sorted(p.name for p in directory.iterdir() if p.name not in keep)


@pytest.mark.parametrize("piece", [1, 7, 64])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=FRAGMENT_TREES)
@example(obj={"a": ["x" * 40] * 4, "b": {"c": fragment([1.5, {"d": [0.5]}])}})
def test_write_streams_dumps(tmp_path, monkeypatch, piece, obj):
    # every chunk a piece of its own (so each Fragment's line began in an
    # earlier piece), cut into slices, or gathered: the file is dumps(obj)
    # + end, and a failure leaves neither it nor a temporary file
    monkeypatch.setattr(jsontext, "PIECE", piece)
    path = tmp_path / "r.json"
    path.unlink(missing_ok=True)
    try:
        jsontext.write(path, obj, end="\n")
        written = path.read_text()
    except NonFiniteError as exc:
        written = type(exc.__cause__), str(exc.__cause__)
    except TypeError as exc:
        written = TypeError, str(exc)
    assert written == outcome(lambda o: jsontext.dumps(o) + "\n", obj)
    assert leftovers(tmp_path, "r.json") == []


def test_nan_in_last_fragment_leaves_target(tmp_path, monkeypatch):
    monkeypatch.setattr(jsontext, "PIECE", 64)
    obj = {"a": [0.5] * 100, "z": fragment([1.0, float("nan")])}
    path = tmp_path / "r.json"
    with pytest.raises(NonFiniteError, match="not JSON compliant"):
        jsontext.write(path, obj)
    assert leftovers(tmp_path) == []
    path.write_bytes(b"an earlier report")
    with pytest.raises(NonFiniteError, match="not JSON compliant"):
        jsontext.write(path, obj)
    assert path.read_bytes() == b"an earlier report"
    assert leftovers(tmp_path, "r.json") == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_mode_is_a_plain_opens(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.json", "w") as fh:
            fh.write("{}")
        jsontext.write(tmp_path / "new.json", {})
        # an existing file keeps its mode, as open leaves it
        (tmp_path / "old.json").write_text("{}")
        os.chmod(tmp_path / "old.json", 0o640)
        jsontext.write(tmp_path / "old.json", {})
    finally:
        os.umask(old)
    new, plain, kept = (stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                        for name in ("new.json", "plain.json", "old.json"))
    assert new == plain == 0o666 & ~umask
    assert kept == 0o640


def test_symlink_target_written_through(tmp_path):
    (tmp_path / "real.json").write_text("old")
    (tmp_path / "link.json").symlink_to("real.json")
    jsontext.write(tmp_path / "link.json", [1])
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "real.json").read_text() == "[\n  1\n]\n"
    assert leftovers(tmp_path, "real.json", "link.json") == []


def test_unwritable_targets_refused(tmp_path, monkeypatch, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(FileExistsError, match="Not a regular file"):
        jsontext.write(fifo, {"a": 1})
    assert cli.main(["gen-scene", "--preset", "toy", "--out", str(fifo)]) == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"] == "FileExistsError"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    # a path that cannot be created or replaced: the error names it, not
    # the temporary file
    monkeypatch.chdir(tmp_path)
    for path in ("", "missing/r.json"):
        with pytest.raises(FileNotFoundError) as refused:
            jsontext.write(path, {"a": 1})
        assert refused.value.filename == path
    assert leftovers(tmp_path, "fifo") == []


def test_write_holds_a_bounded_share_of_the_text(tmp_path):
    # sample-dump-like Fragments and a plain list, 20 MB in all; the whole
    # text is never held, so the peak stays far below it
    values = np.linspace(-1.0, 1.0, 12_000).tolist()
    obj = {"dumps": [jsontext.Fragment(lambda level: json.dumps(values))
                     for _ in range(80)],
           "plain": values[:4_000]}
    path = tmp_path / "r.json"
    tracemalloc.start()
    try:
        jsontext.write(path, obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 16e6
    assert peak < size / 4, (peak, size)
