"""Exception types shared across the package."""


class UsageError(ValueError):
    """A caller violated an operation's contract (bad arguments or state)."""


class ConfigError(UsageError):
    """Invalid, missing, or unknown configuration keys/values."""


class DataError(ValueError):
    """Input data is malformed: empty clouds, non-finite values, bad shapes."""


class FormatError(OSError):
    """A binary artifact has a bad magic, version, or truncated layout."""


class NumericalError(RuntimeError):
    """Training produced non-finite values and was aborted."""


class ContributionBudgetError(NumericalError):
    """A view would make more (splat, pixel) contributions than the
    renderer's budget, as exploding splat scales do."""

    def __init__(self, message: str, contributions: int, budget: int):
        super().__init__(message)
        self.contributions = contributions
        self.budget = budget
