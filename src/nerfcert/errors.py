"""Exception types shared across the package."""


class NerfCertError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(NerfCertError, ValueError):
    """An argument violates a documented precondition."""


class InvariantViolationError(NerfCertError, RuntimeError):
    """An internal consistency check failed; the result cannot be trusted."""


class OracleInfeasibleError(NerfCertError, RuntimeError):
    """The exhaustive subset count exceeds the configured budget."""

    def __init__(
        self, n: int, k_min: int, k_max: int, subsets: int, budget: int
    ):
        what = (
            f"C({n},{k_min})"
            if k_min == k_max
            else f"C({n},K) summed over K in [{k_min}, {k_max}]"
        )
        super().__init__(f"{what} = {subsets} subsets exceeds budget {budget}")
