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


class DegenerateTable(PolyadmitError):
    pass


class MissingScore(PolyadmitError):
    pass


class InfeasibleAssignment(PolyadmitError):
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


class EmptySample(PolyadmitError):
    pass


class ConstantOutcome(PolyadmitError):
    """A regression outcome takes one value among every admit, so each fit
    of it would report zeros or the constant itself."""


class PerfectFit(PolyadmitError):
    """A regression outcome is an exact linear function of its terms, so
    every standard error would be 0 and no fit of it says anything."""


class InvalidConfig(PolyadmitError):
    pass


class NonFiniteResult(PolyadmitError):
    """A floating-point operation overflowed, divided by zero or left the
    real numbers, so a report would hold an infinite or NaN value."""


class ParseError(PolyadmitError):
    """CSV row could not be parsed; message includes file, row and column."""
