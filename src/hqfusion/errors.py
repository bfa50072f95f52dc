"""Exception types shared across the package."""
from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class MaskError(ValueError):
    """Attention mask violates its contract (e.g. a fully blocked row)."""


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
