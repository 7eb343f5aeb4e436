"""Exception hierarchy shared by all modules.

CLI exit codes: ConfigurationError and InputError map to exit 1,
NumericError and its DivergenceError to exit 2, StabilityError to exit 3.
Each class carries its code as `exit_code`.
"""

__all__ = ["AdrLabError", "ConfigurationError", "InputError", "NumericError",
           "DivergenceError", "StabilityError"]


class AdrLabError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    def manifest_fields(self) -> dict:
        """Keys this error adds to the manifest of a failed run."""
        return {}


class ConfigurationError(AdrLabError):
    """Invalid run setup: bad grid counts, lengths, config keys, mismatched domains."""


class InputError(AdrLabError):
    """Invalid runtime input: negative time, non-finite samples, bad cell index."""


class NumericError(AdrLabError):
    """Non-finite intermediate produced during evaluation (overflow, NaN)."""

    exit_code = 2


class DivergenceError(NumericError):
    """A time-stepping run produced non-finite field values.

    Carries the step index at which divergence was first detected.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

    def manifest_fields(self) -> dict:
        return {"diverged_at_step": self.step}


class StabilityError(AdrLabError):
    """A step was rejected because the stability constraints fail.

    Carries the offending stability report (a Stability).
    """

    exit_code = 3

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report

    def manifest_fields(self) -> dict:
        return {"stability": self.report.as_dict()}
