"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of the requested quantity."""


class ToleranceNotMet(ArithmeticError):
    """Adaptive quadrature could not certify the requested error.

    Carries the achieved error estimate in ``achieved`` so callers can decide
    whether the partial result would have been usable.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class BracketError(ArithmeticError):
    """No sign change found; a root bracket could not be established."""


class NearZeroAmplitude(ArithmeticError):
    """The amplitude integral is too small for a trustworthy ratio."""
