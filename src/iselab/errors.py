"""Exception types shared across the package."""


class IselabError(Exception):
    """Base class for all package errors."""


class MemoryBudgetError(IselabError):
    """Requested grid exceeds the configured point budget."""


class UnresolvableBallError(IselabError):
    """Ball radius too small for the grid spacing (delta/h < 4)."""


class ScaleWindowError(IselabError):
    """The scale window (x/2, x] contains no odd integer."""


class SolverError(IselabError):
    """Eigensolver failed or exhausted its budget."""

    def __init__(self, message, telemetry=None):
        super().__init__(message)
        self.telemetry = telemetry or {}


class GapNotFoundError(IselabError):
    """No spectral gap found near the hinted energy."""


class SearchBudgetError(IselabError):
    """lift or ucp drew no configuration in the good event in --attempts."""


class EventViolatedError(IselabError):
    """A configuration does not belong to the required event."""
