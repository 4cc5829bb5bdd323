"""Exception types shared across the package."""


class CavtelError(Exception):
    """Base class for errors raised by this package."""


class PhysicalityError(CavtelError, ValueError):
    """A covariance matrix violates symmetry or the uncertainty bound."""


class QuadratureError(CavtelError, RuntimeError):
    """Adaptive quadrature exhausted its panel budget before converging."""

    def __init__(self, message, residual=None, panels=None):
        super().__init__(message)
        self.residual = residual
        self.panels = panels


class TruncationError(CavtelError, RuntimeError):
    """The mode truncation is too small for the requested quantity."""


class ConsistencyError(CavtelError, RuntimeError):
    """An internal cross-check between result pipelines failed."""


class TrajectoryParseError(CavtelError, ValueError):
    """A trajectory or config file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
