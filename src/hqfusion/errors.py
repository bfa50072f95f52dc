"""Exception types shared across the package, and the config field table.

A config field declares its legal values with `bounded` or `one_of`, and
`cli.apply_override` checks them whenever it sets the field; a field with
neither is bounded by a cross-field rule in its section's `validate`.
"""
from __future__ import annotations

import math
import sys
from dataclasses import field

import numpy as np

MAX_FLOAT = sys.float_info.max
MIN_POSITIVE = math.ulp(0.0)  # "> 0" as a closed range's lower end


def bounded(default, lo, hi):
    """A field whose values lie in [lo, hi] (a NaN never does): hi is
    MAX_FLOAT for a float that need only be finite, math.inf for a seed or
    a count that a row of cli.RunConfig.limits bounds."""
    return field(default=default, metadata={"range": (lo, hi)})


def one_of(default, *choices):
    return field(default=default, metadata={"choices": choices})


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class GenerationError(RuntimeError):
    """Scene generation could not satisfy its placement constraints."""


class WeightFormatError(ValueError):
    """Weight file is malformed, truncated, or does not match the config."""


class NonFiniteError(ValueError):
    """A NaN or infinite value reached a stage boundary or a report."""


def require_finite(stage: str, array, layer: int | None = None):
    """Raise NonFiniteError naming the stage (and layer) if `array` holds a
    NaN or an infinity; one isfinite pass over the array."""
    if not np.isfinite(array).all():
        where = stage if layer is None else f"{stage} of layer {layer}"
        raise NonFiniteError(f"non-finite value in the {where}")
