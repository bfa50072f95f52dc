"""Stored reference reports and the comparison against them.

A reference keeps two things about a report:

* the SHA-256 of its skeleton: the parsed document with every float
  replaced by a placeholder.  Keys, strings, ints, bools, nulls, list
  lengths and nesting must match exactly; JSON whitespace is free.
* one byte per float, in document order: a hash of ``floor(x / DELTA)``.
  A float y passes when the code of ``floor(y / DELTA)`` or of one of its
  two neighbours equals the stored byte.  Every y within DELTA (1e-9, the
  reassociation allowance) of the reference passes; a y further than
  2 * DELTA away fails except for a 3/256 chance per float.

Storing codes rather than the floats keeps the `emit` references (300k
floats each) at 300 KB instead of 2.4 MB, at the cost of that small chance.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

DELTA = 1e-9
_MULT = np.uint64(0x9E3779B97F4A7C15)


def _split(text: str) -> tuple[str, np.ndarray]:
    """Skeleton hash and float values of a JSON report, in document order."""
    floats: list[float] = []

    def take(literal: str) -> float:
        floats.append(float(literal))
        return 0.0

    doc = json.loads(text, parse_float=take)
    skeleton = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(skeleton.encode("utf-8")).hexdigest()
    return digest, np.asarray(floats, dtype=np.float64)


def _codes(cells: np.ndarray) -> np.ndarray:
    """One hash byte per integer grid cell."""
    return ((cells.astype(np.int64).view(np.uint64) * _MULT)
            >> np.uint64(56)).astype(np.uint8)


def encode(text: str) -> bytes:
    """Reference file contents for one report: a JSON header line + codes."""
    digest, floats = _split(text)
    header = {"skeleton_sha256": digest, "floats": int(floats.size),
              "delta": DELTA}
    cells = np.floor(floats / DELTA)
    return (json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
            + _codes(cells).tobytes())


def compare(text: str, reference: bytes) -> list[str]:
    """Differences between a report and its stored reference ([] = equal)."""
    head, _, body = reference.partition(b"\n")
    header = json.loads(head)
    want = np.frombuffer(body, dtype=np.uint8)
    digest, floats = _split(text)
    problems = []
    if digest != header["skeleton_sha256"]:
        problems.append("non-float content differs from the reference")
    if floats.size != header["floats"] or want.size != floats.size:
        problems.append(f"report has {floats.size} floats, reference "
                        f"{header['floats']}")
        return problems
    cells = np.floor(floats / header["delta"])
    ok = np.zeros(floats.size, dtype=bool)
    for step in (-1.0, 0.0, 1.0):
        ok |= _codes(cells + step) == want
    if not ok.all():
        first = int(np.flatnonzero(~ok)[0])
        problems.append(f"{int((~ok).sum())} floats differ from the reference "
                        f"by more than {header['delta']:g} (first: float "
                        f"#{first} = {floats[first]!r})")
    return problems
