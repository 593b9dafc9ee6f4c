"""Exception types shared across the package, and the field check every
config dataclass runs."""

import numpy as np


class EgoTrackError(Exception):
    """Base class for all package-specific errors."""


class FrameMismatchError(EgoTrackError):
    """A transform was applied to data expressed in a different frame."""


class DegenerateGeometryError(EgoTrackError):
    """Geometry input that has no well-defined answer (empty set, zero weights, ...)."""


class InvalidDepthError(EgoTrackError):
    """A depth value that violates the camera model (non-positive or behind near plane)."""


class NumericalError(EgoTrackError):
    """A numerically ill-posed linear-algebra step (singular or indefinite matrix)."""


class ConfigError(EgoTrackError):
    """Malformed or incomplete run configuration."""


def check_fields(obj, *, positive=(), non_negative=(), choices=None) -> None:
    """Raise ``ValueError`` for the first field of ``obj`` out of its bound.

    ``positive`` and ``non_negative`` name numeric fields, scalar or vector
    (every entry is checked); a NaN fails both bounds.  ``choices`` maps a
    field to the tuple of values it may take.  The message starts with the
    field's name, so the config layer can prefix the path of its section.
    """
    bounds = ((positive, np.greater, "positive"), (non_negative, np.greater_equal, "non-negative"))
    for names, holds, bound in bounds:
        for name in names:
            value = getattr(obj, name)
            if not np.all(holds(value, 0)):
                raise ValueError(f"{name} must be {bound}, got {value!r}")
    for name, allowed in (choices or {}).items():
        value = getattr(obj, name)
        if value not in allowed:
            raise ValueError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
