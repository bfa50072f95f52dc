"""Indented JSON text for reports and scene files.

`dumps(obj)` is the standard library's encoder with `sort_keys=True,
indent=2, allow_nan=False`, with one addition: a `Fragment` value is written
as the text it renders, where the value stands.  A caller uses one for a
block it can render straight from arrays, such as a sample dump, instead of
building nested dicts for the encoder to walk; the text must be what the
standard library gives for those dicts.

`iterencode(obj)` yields that text as a stream of chunks, and `dumps` joins
them.  `write` streams the chunks to disk in pieces of about `PIECE`
characters, so it never holds the whole text: each Fragment is rendered
where it stands, written and dropped.  The file appears at its path only
once it is complete.
"""
from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import secrets
import stat

from .errors import NonFiniteError, echo

# What the encoder is handed in place of a Fragment; `iterencode` swaps its
# quoted text for the Fragment's.
_MARK = "\x00jsontext.Fragment\x00"
_QUOTED_MARK = json.dumps(_MARK)

# Characters `write` gathers before each write: large enough that the
# per-write cost vanishes, small next to a report's text.
PIECE = 1 << 20


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


def iterencode(obj):
    """The chunks of `json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False)`, in text order, with each Fragment as one chunk of
    its own text.

    The chunks come from `json.JSONEncoder.iterencode`.  The encoder hands
    each Fragment to `stand_in`, which renders it at once (so its errors
    come in text order too) and returns a mark, whose quoted chunk follows
    and is swapped for the rendered text.  A string equal to the mark is
    written as any other string.  A Fragment's indent is that of the last
    chunk holding a newline, which is kept however long ago it came.

    Raises ValueError on NaN or an infinity and TypeError on a value or key
    JSON cannot hold, with the standard library's messages, when the stream
    reaches it.
    """
    line = ""          # the last chunk holding a newline
    rendered: list[str] = []   # a Fragment's text, while its mark is due

    def stand_in(value):
        if not isinstance(value, Fragment):
            json.JSONEncoder.default(encoder, value)   # raises TypeError
        # the value stands on the last line begun, after its indent
        rendered.append(value.render(len(line.rpartition("\n")[2]) // 2))
        return _MARK

    encoder = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False,
                               default=stand_in)
    for chunk in encoder.iterencode(obj):
        if rendered and chunk == _QUOTED_MARK:
            chunk = rendered.pop()
        if "\n" in chunk:
            line = chunk
        yield chunk


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`, with
    each Fragment written as its own text: `iterencode(obj)` joined."""
    return "".join(iterencode(obj))


def _pieces(chunks):
    """The chunks' text in pieces of about PIECE characters; a chunk longer
    than that (a Fragment's text) is cut into slices of PIECE, not copied
    whole."""
    gathered: list[str] = []
    size = 0
    for chunk in chunks:
        if len(chunk) > PIECE:
            yield "".join(gathered)
            gathered, size = [], 0
            for start in range(0, len(chunk), PIECE):
                yield chunk[start:start + PIECE]
            continue
        gathered.append(chunk)
        size += len(chunk)
        if size >= PIECE:
            yield "".join(gathered)
            gathered, size = [], 0
    yield "".join(gathered)


def write(path, obj, end: str = "\n"):
    """Write `dumps(obj)` and `end` to path, in pieces of about PIECE
    characters, without holding the whole text.

    The pieces go to a new file in path's directory, which replaces path
    once the last piece is written; through a symlink, the file it names is
    replaced.  The file gets the mode `open(path, "w")` would leave: an
    existing file's, or the umask's.  An existing path that is not a
    regular file is refused with FileExistsError.  A NaN or an infinity
    raises NonFiniteError.  On any error, path is left as it was and the
    new file is removed.
    """
    try:
        existing = os.stat(path)
    except FileNotFoundError:
        existing = None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        raise FileExistsError(errno.EEXIST, "Not a regular file", path)
    target = os.path.realpath(path) if os.path.islink(path) else path
    # a short random name, so it fits wherever target's does, created
    # exclusively; the umask masks 0o666 as it does for open
    tmp = os.path.join(os.path.dirname(target),
                       f".hqfusion-{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:   # errors name path, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if existing is not None:
                os.fchmod(fd, stat.S_IMODE(existing.st_mode))
            try:
                for piece in _pieces(iterencode(obj)):
                    fh.write(piece)
            except ValueError as exc:
                raise NonFiniteError(
                    f"refusing to write {echo(str(path))}: {exc}") from exc
            fh.write(end)
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
