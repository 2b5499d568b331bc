"""Exception and warning types shared across the package."""

__all__ = [
    "LerayflowError", "SymmetryViolation", "GridMismatch",
    "CriticalityViolation", "MissingMagneticField", "NonFinite",
    "TooFewSamples", "NonMonotone", "ConfigError", "ConfigSyntaxError",
    "UnknownKeyError", "InvariantViolation", "CFLExceeded",
]


class LerayflowError(Exception):
    """Base class for all package-specific errors."""


class SymmetryViolation(LerayflowError):
    """Spectral coefficients are not Hermitian-symmetric within tolerance."""


class GridMismatch(LerayflowError):
    """Two fields that must share a grid were built on different grids."""


class CriticalityViolation(LerayflowError):
    """Filter order theta below the critical value 1/4 for a regularized model."""


class MissingMagneticField(LerayflowError):
    """MHD model requested but the state carries no magnetic field."""


class NonFinite(LerayflowError):
    """A NaN or Inf appeared in the solution."""


class TooFewSamples(LerayflowError):
    """A time-series diagnostic needs more samples than were supplied."""


class NonMonotone(LerayflowError):
    """Sweep errors failed the required monotone decrease."""


class ConfigError(LerayflowError):
    """Base class for run-configuration problems."""


class ConfigSyntaxError(ConfigError):
    """Malformed config text (bad line, duplicate key, bad section)."""


class UnknownKeyError(ConfigError):
    """Config contains a key or section this version does not know."""


class InvariantViolation(ConfigError):
    """A structurally valid value violates a documented invariant."""


class CFLExceeded(UserWarning):
    """Advisory warning: the explicit step exceeds the configured CFL limit."""
