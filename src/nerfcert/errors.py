"""Exception types shared across the package."""


class NerfCertError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(NerfCertError, ValueError):
    """A generator spec is out of range (k = 0 or k > M)."""


class InvalidInputError(NerfCertError, ValueError):
    """An argument violates a documented precondition."""


class InvalidConfigError(NerfCertError, ValueError):
    """A net or run configuration is inconsistent."""


class LevelSearchOverflowError(NerfCertError, RuntimeError):
    """No admissible level count was found below the search cap."""


class InvariantViolationError(NerfCertError, RuntimeError):
    """An internal consistency check failed; the result cannot be trusted."""


class OracleInfeasibleError(NerfCertError, RuntimeError):
    """The exhaustive subset count exceeds the configured budget."""

    def __init__(self, n: int, k: int, subsets: int, budget: int):
        self.n = n
        self.k = k
        self.subsets = subsets
        self.budget = budget
        super().__init__(
            f"C({n},{k}) = {subsets} subsets exceeds budget {budget}"
        )
