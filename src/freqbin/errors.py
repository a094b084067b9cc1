"""Exception types shared across the package, and one finiteness rule."""

import math
from dataclasses import fields


class FreqbinError(Exception):
    """Base class for all package errors."""


class ValidationError(FreqbinError, ValueError):
    """A value or matrix violates a physical or structural constraint."""


class ConfigurationError(FreqbinError, ValueError):
    """An operation references modes or settings absent from the configuration."""


class DomainError(FreqbinError, ValueError):
    """Arguments are outside the mathematical domain of an operation."""


class FitError(FreqbinError, RuntimeError):
    """A nonlinear fit failed to converge or the data cannot constrain it.

    Carries the best residual seen, when one exists.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ManifestError(FreqbinError, ValueError):
    """A run manifest failed strict parsing.

    ``location`` is a JSON-pointer-style path to the offending key.
    """

    def __init__(self, message: str, location: str = "/"):
        super().__init__(f"{location}: {message}")
        self.location = location


def check_finite(settings, ideal_inf: tuple[str, ...] = ()) -> None:
    """Raise `ValidationError` naming the first NaN or infinite float field
    of a settings dataclass; +inf is the ideal of the fields in ``ideal_inf``."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            if not (f.name in ideal_inf and value == math.inf):
                raise ValidationError(f"{f.name} must be finite")
