"""Shared exception types."""

from numbers import Integral


class ConfigurationError(ValueError):
    """A requested configuration is inconsistent or out of contract."""


class MaterializationLimitError(ValueError):
    """Dense materialization refused because the operator exceeds the size cap."""


class NormalizationError(ArithmeticError):
    """An orthogonalization normalizer degenerated below working precision."""


class UnsupportedMetricError(ConfigurationError):
    """A metric was requested for a source prior that cannot produce it."""


def require_integer(name: str, value) -> None:
    """Raise ConfigurationError unless value is an integer; bools are refused."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
