"""Exception hierarchy shared across the package."""


class QRotorError(Exception):
    """Base class for all package errors."""


class InvalidInputError(QRotorError, ValueError):
    """A physical parameter is out of its allowed domain."""


class CalibrationTargetError(InvalidInputError):
    """A calibration target lies where the shift family's bracket has no root."""


class ConvergenceError(QRotorError):
    """A numerical solve failed its self-consistency check, or a fit did not converge.

    Carries a ``diagnostics`` dict: a solve's grid sizes and observed drifts,
    or a fit's best parameters so far.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ConfigError(QRotorError):
    """A run configuration failed validation; message names the field."""
