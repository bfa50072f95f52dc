"""Exception types shared across the package."""


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
    """A NaN or infinite value reached a report."""
