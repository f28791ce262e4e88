"""Exception types shared across the package."""


class NerfCertError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(NerfCertError, ValueError):
    """An argument violates a documented precondition."""


class InvariantViolationError(NerfCertError, RuntimeError):
    """An internal consistency check failed; the result cannot be trusted."""


class OracleInfeasibleError(NerfCertError, RuntimeError):
    """The exhaustive subset count exceeds the configured budget."""
