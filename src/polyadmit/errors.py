"""Exception hierarchy shared across the package."""


class PolyadmitError(Exception):
    """Base class for all package errors."""


class ValidationError(PolyadmitError):
    """Panel data violates a structural invariant.

    Carries the full list of violations so callers can report them all at
    once instead of fixing one at a time.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class EmptyName(PolyadmitError):
    pass


class MissingFieldWeights(PolyadmitError):
    pass


class DegenerateTable(PolyadmitError):
    pass


class MissingScore(PolyadmitError):
    pass


class InfeasibleAssignment(PolyadmitError):
    pass


class InstanceTooLarge(PolyadmitError):
    pass


class UniverseMismatch(PolyadmitError):
    pass


class NoObservedAssignment(PolyadmitError):
    pass


class UnknownScenario(PolyadmitError):
    pass


class EmptyAssignment(PolyadmitError):
    pass


class BinMismatch(PolyadmitError):
    pass


class RankDeficient(PolyadmitError):
    """OLS design matrix is rank deficient.

    ``columns`` names the offending columns; nothing is dropped silently.
    """

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"rank-deficient design matrix, offending columns: {self.columns}")


class MissingThreshold(PolyadmitError):
    pass


class EmptySample(PolyadmitError):
    pass


class InvalidConfig(PolyadmitError):
    pass


class ParseError(PolyadmitError):
    """CSV row could not be parsed; message includes file, row and column."""
