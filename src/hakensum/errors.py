"""Exception types shared across the package."""


class HakenSumError(ValueError):
    """Base class for all domain errors raised by this package."""


class MalformedComplexError(HakenSumError):
    """A patch complex fails its structural invariants."""


class DomainError(HakenSumError):
    """An operation was applied to a value outside its domain."""


class RangeError(HakenSumError):
    """A level index lies outside the admissible open interval."""


class InsufficientCopiesError(HakenSumError):
    """A reduction would consume more parallel copies than are present."""


class DisconnectionError(HakenSumError):
    """Equal numbers of positive and negative curves: the iterated sum
    disconnects for large copy counts, so the reduction is undefined."""


class UndefinedPeriodError(HakenSumError):
    """Periodicity is undefined when the reduced intersection is empty."""


class GuardViolationError(HakenSumError):
    """A rewrite move was applied in a state where its guard fails."""


class CertificateError(HakenSumError):
    """A certificate could not be constructed or failed validation."""


class ScenarioError(HakenSumError):
    """Scenario parameters or file contents are invalid."""
