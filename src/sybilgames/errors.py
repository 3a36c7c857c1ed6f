"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A search or experiment is configured in a way that cannot run."""


class UnsupportedOperationError(RuntimeError):
    """The requested operation is undefined for this object (e.g. no merge rule)."""


class NumericError(RuntimeError):
    """A numeric routine failed to converge or hit a singular scale."""


class SingularScaleError(NumericError):
    """A normalising factor vanished (e.g. CDF equal to zero at the evaluation point)."""


class MalformedSliceError(DomainError):
    """A slice has overlapping or out-of-range intervals."""


class InvariantViolation(RuntimeError):
    """A runtime self-check failed; results must not be trusted."""
