"""Indented JSON text for reports and scene files.

`dumps(obj)` is the standard library's encoder with `sort_keys=True,
indent=2, allow_nan=False`, with one addition: a `Fragment` value is written
as the text it renders, where the value stands.  A caller uses one for a
block it can render straight from arrays, such as a sample dump, instead of
building nested dicts for the encoder to walk; the text must be what the
standard library gives for those dicts.
"""
from __future__ import annotations

import json
import math

from .errors import NonFiniteError

# What the encoder is handed in place of a Fragment; `dumps` swaps its
# quoted text for the Fragment's.
_MARK = "\x00jsontext.Fragment\x00"
_QUOTED_MARK = json.dumps(_MARK)


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
        return float.__repr__(value)
    raise ValueError("Out of range float values are not JSON compliant: "
                     + repr(value))


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`, with
    each Fragment written as its own text.

    The text comes from `json.JSONEncoder.iterencode`, whose chunks arrive
    in text order.  The encoder hands each Fragment to `stand_in`, which
    renders it at once (so its errors come in text order too) and returns
    a mark, whose quoted chunk follows and is swapped for the rendered
    text.  A string equal to the mark is written as any other string.

    Raises ValueError on NaN or an infinity and TypeError on a value or key
    JSON cannot hold, with the standard library's messages.
    """
    parts: list[str] = []
    rendered: list[str] = []   # a Fragment's text, while its mark is due

    def stand_in(value):
        if not isinstance(value, Fragment):
            json.JSONEncoder.default(encoder, value)   # raises TypeError
        # the value stands on the last line begun, after its indent
        line = next((part for part in reversed(parts) if "\n" in part), "")
        rendered.append(value.render(len(line.rpartition("\n")[2]) // 2))
        return _MARK

    encoder = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False,
                               default=stand_in)
    for chunk in encoder.iterencode(obj):
        if rendered and chunk == _QUOTED_MARK:
            chunk = rendered.pop()
        parts.append(chunk)
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
