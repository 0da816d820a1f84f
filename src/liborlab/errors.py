"""Exception hierarchy shared across the package."""


class LiborLabError(Exception):
    """Base class for all errors raised by this package."""


class CurveError(LiborLabError):
    """Invalid tenor structure or initial curve data, or a tenor index out of range."""


class DomainError(LiborLabError):
    """Argument outside the finite-exponential-moment domain of a driver.

    Carries the maximal admissible value when it is known.
    """

    def __init__(self, message, max_admissible=None):
        super().__init__(message)
        self.max_admissible = max_admissible


class UnsupportedSchemeError(LiborLabError):
    """Approximation scheme incompatible with the configured driver."""


class QuadratureError(LiborLabError):
    """Numerical quadrature failed to reach the requested tolerance."""


class CalibrationError(LiborLabError):
    """Backward-induction or root-finding calibration failure."""


class FitInfeasibleError(CalibrationError):
    """Initial curve outside the attainable range of the martingale family."""

    def __init__(self, message, tenor_index=None):
        super().__init__(message)
        self.tenor_index = tenor_index


class PriceBoundsError(LiborLabError):
    """Option price violates an arbitrage bound; names the offending bound."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class ConfigError(LiborLabError):
    """Malformed or inconsistent experiment configuration."""
