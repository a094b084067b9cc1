"""Exception types shared across the package, and the one number and
range rule of every settings class (`check_settings`); a rule relating
two fields stays with its class."""

import math
from dataclasses import fields

import numpy as np


class FreqbinError(Exception):
    """Base class for all package errors."""


class ValidationError(FreqbinError, ValueError):
    """A value or matrix violates a physical or structural constraint."""


class ConfigurationError(FreqbinError, ValueError):
    """An operation references modes or settings absent from the configuration."""


class DomainError(FreqbinError, ValueError):
    """Arguments are outside the mathematical domain of an operation."""


class FitError(FreqbinError, RuntimeError):
    """A nonlinear fit failed to converge or the data cannot constrain it."""


class ManifestError(FreqbinError, ValueError):
    """A run manifest failed strict parsing.

    ``location`` is a JSON-pointer-style path to the offending key.
    """

    def __init__(self, message: str, location: str = "/"):
        super().__init__(f"{location}: {message}")
        self.location = location


def finite(value) -> bool:
    """Whether a real number is finite; an integer past the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# The ranges of `check_settings`, in the order of its arguments.
_RANGES = ((lambda x: 0.0 < x <= 1.0, "lie in (0, 1]"),
           (lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]"),
           (lambda x: x > 0.0, "be positive"), (lambda x: x >= 0.0, "be nonnegative"))


def check_settings(settings, ideal_inf=(), unit=(), fraction=(), positive=(), nonnegative=()):
    """Raise `ValidationError` naming the first field of a settings dataclass
    that breaks the rule.  A number field, annotated ``float`` or ``float |
    None`` with None for unset (annotations are postponed, so the type is
    that string), holds an int, float or numpy real scalar but no bool
    ("<field> must be a real number") that is finite ("<field> must be
    finite"), +inf allowed in ``ideal_inf``; then ``unit`` fields lie in
    (0, 1], ``fraction`` in [0, 1], ``positive`` above 0 and ``nonnegative``
    at or above 0 ("<field> must lie in (0, 1]", "<field> must be positive")."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type != "float" and (f.type != "float | None" or value is None):
            continue  # nested settings check themselves
        if type(value) is not float and (isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating))):
            raise ValidationError(f"{f.name} must be a real number")
        if not finite(value) and not (f.name in ideal_inf and value == math.inf):
            raise ValidationError(f"{f.name} must be finite")
    for names, (inside, rule) in zip((unit, fraction, positive, nonnegative), _RANGES):
        for name in names:
            if not inside(getattr(settings, name)):
                raise ValidationError(f"{name} must {rule}")
