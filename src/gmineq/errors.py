"""Exception types shared across the package."""

import math


class Error(Exception):
    """Base class for all package errors."""


class NotHermitian(Error):
    """Input violates the Hermitian invariant."""


class NonConvergence(Error):
    """The underlying eigenvalue / singular value solver failed."""


class NotPositiveSemidefinite(Error):
    """Spectrum has genuinely negative eigenvalues where nonnegative ones are required."""


class SingularForNegativePower(Error):
    """Negative matrix power requested but the spectrum touches the PD floor."""


class SingularInput(Error):
    """Operation requires a nonsingular (or positive definite) input."""


class NonFiniteInput(Error, ValueError):
    """A matrix has NaN or infinite entries."""


class DimensionMismatch(Error):
    """Operands have incompatible shapes."""


class InvalidSpec(Error):
    """Norm selector is invalid for the given matrix (k out of range, p < 1)."""


class HypothesisViolation(Error):
    """Parameters fall outside the hypothesis of the evaluated statement."""


class NotCommuting(Error):
    """A commuting-kind instance was required."""


class NotUnitary(Error):
    """An operand expected to be unitary is not, beyond tolerance."""


class InvalidSpectrumLaw(Error):
    """Spectrum law parameters are invalid."""


class ConfigError(Error):
    """Sweep / search configuration failed validation."""


class SchemaVersionMismatch(Error):
    """Report file carries an unsupported schema version."""


class MalformedRecord(Error):
    """A record read back from a file lacks a field, or a field has the wrong type."""


def require_all(kind, values, message: str) -> None:
    """Raise ConfigError(message) unless every value is an instance of
    `kind`; booleans never count as numbers."""
    if not all(isinstance(v, kind) and not isinstance(v, bool) for v in values):
        raise ConfigError(message)


def require_finite(name: str, values) -> None:
    """Raise ConfigError naming field `name` if any of its numbers is
    infinite or NaN."""
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name} must be finite, got {values!r}")
