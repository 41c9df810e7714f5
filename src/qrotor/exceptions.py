"""Exception hierarchy shared across the package."""


class QRotorError(Exception):
    """Base class for all package errors."""


class InvalidInputError(QRotorError, ValueError):
    """A physical parameter is out of its allowed domain."""


class CalibrationTargetError(InvalidInputError):
    """A calibration target lies where the shift family's bracket has no root."""


class ConvergenceError(QRotorError):
    """A numerical solve failed its self-consistency check.

    Carries a ``diagnostics`` dict with grid sizes and observed drifts.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ValidityError(QRotorError):
    """A perturbative-validity inequality is violated.

    ``ratio`` holds the offending ratio so callers can report it.
    """

    def __init__(self, message, ratio=None):
        super().__init__(message)
        self.ratio = ratio


class ConfigError(QRotorError):
    """A run configuration failed validation; message names the field."""


class FitError(QRotorError):
    """Nonlinear fit did not converge; carries the best parameters so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
