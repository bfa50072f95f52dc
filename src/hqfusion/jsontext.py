"""Indented JSON text for reports and scene files.

For a tree of plain values, `dumps(obj)` returns exactly `json.dumps(obj,
sort_keys=True, indent=2, allow_nan=False)`.  With any indent the standard
library leaves its C encoder for a pure-Python one built from generators;
this writer does the same walk as plain loops that append to one list of
parts.  Scalars are written inline, each string key is encoded once per
call, strings go through the C `encode_basestring_ascii`, and a list of
floats is joined in one pass.  A report is a tree, so there is no
circular-reference check.

A `Fragment` writes its own text, which `dumps` appends where the value
stands.  A caller uses one for a block it can render straight from arrays,
such as a sample dump, instead of building nested dicts for this walk; the
text must be what the standard library gives for those dicts.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import NonFiniteError

_float_repr = float.__repr__
_int_repr = int.__repr__


class Fragment:
    """A value whose JSON text is `render(level)`.

    `level` is the indent level of the value's closing bracket; the text
    starts at the value's first character.  `render` raises ValueError, with
    the standard library's message, on a value JSON cannot hold.
    """

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render


def float_text(value: float) -> str:
    """A float's JSON text; ValueError, as the standard library's, if it is
    NaN or infinite."""
    if math.isfinite(value):
        return _float_repr(value)
    raise ValueError("Out of range float values are not JSON compliant: "
                     + repr(value))


def _key_text(key) -> str:
    """A dict key's JSON text, in the standard library's order of tests."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return _encode_str(float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _encode_str(_int_repr(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`, with
    each Fragment written as its own text.

    Raises ValueError on NaN or an infinity and TypeError on a value or key
    JSON cannot hold, with the standard library's messages.
    """
    parts: list[str] = []
    append = parts.append
    keys: dict[str, str] = {}   # str key -> '"key": '
    newlines = ["\n"]           # newlines[n]: newline and n levels of indent

    def newline(level: int) -> str:
        while len(newlines) <= level:
            newlines.append(newlines[-1] + "  ")
        return newlines[level]

    def write(value, head: str, level: int):
        """Append head and value's text; a container of value closes at
        indent `level`."""
        cls = value.__class__
        if cls is dict:
            write_dict(value, head, level)
        elif cls is list or cls is tuple:
            write_list(value, head, level)
        elif cls is str:
            append(head + _encode_str(value))
        elif cls is float:
            append(head + float_text(value))
        elif cls is int:
            append(head + _int_repr(value))
        elif value is None:
            append(head + "null")
        elif value is True:
            append(head + "true")
        elif value is False:
            append(head + "false")
        elif cls is Fragment:
            append(head + value.render(level))
        # subclasses, in the order the standard library tests them
        elif isinstance(value, str):
            append(head + _encode_str(value))
        elif isinstance(value, int):
            append(head + _int_repr(value))
        elif isinstance(value, float):
            append(head + float_text(value))
        elif isinstance(value, (list, tuple)):
            write_list(value, head, level)
        elif isinstance(value, dict):
            write_dict(value, head, level)
        else:
            raise TypeError(f"Object of type {cls.__name__} "
                            f"is not JSON serializable")

    def write_list(lst, head: str, level: int):
        if not lst:
            append(head + "[]")
            return
        inner = newline(level + 1)
        sep = "," + inner
        if lst[0].__class__ is float:
            try:
                text = sep.join(map(_float_repr, lst))
            except TypeError:   # not every element is a float
                pass
            else:
                # the sum is finite unless some element is NaN or
                # infinite, or the sum of finite elements overflowed
                if not math.isfinite(sum(lst)):
                    for value in lst:
                        float_text(value)
                append(head + "[" + inner + text + newlines[level] + "]")
                return
        item_head = head + "[" + inner
        for value in lst:
            cls = value.__class__
            if cls is float:
                append(item_head + float_text(value))
            elif cls is int:
                append(item_head + _int_repr(value))
            elif cls is str:
                append(item_head + _encode_str(value))
            else:
                write(value, item_head, level + 1)
            item_head = sep
        append(newlines[level] + "]")

    def write_dict(dct, head: str, level: int):
        if not dct:
            append(head + "{}")
            return
        inner = newline(level + 1)
        sep = "," + inner
        item_head = head + "{" + inner
        for key in sorted(dct):
            value = dct[key]
            if key.__class__ is str:
                key_text = keys.get(key)
                if key_text is None:
                    key_text = keys[key] = _encode_str(key) + ": "
            else:
                key_text = _key_text(key) + ": "
            cls = value.__class__
            if cls is float:
                append(item_head + key_text + float_text(value))
            elif cls is int:
                append(item_head + key_text + _int_repr(value))
            elif cls is str:
                append(item_head + key_text + _encode_str(value))
            else:
                write(value, item_head + key_text, level + 1)
            item_head = sep
        append(newlines[level] + "}")

    write(obj, "", 0)
    return "".join(parts)


def write(path, obj, end: str = "\n"):
    """Serialize obj in full with `dumps`, then write it and `end` to path.

    A NaN or an infinity raises NonFiniteError before the file is opened.
    """
    try:
        text = dumps(obj)
    except ValueError as exc:
        raise NonFiniteError(f"refusing to write {path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)   # not text + end: that copies the whole text
        fh.write(end)
