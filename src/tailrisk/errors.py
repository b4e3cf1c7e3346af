"""Exception types shared across the package."""


class TailRiskError(Exception):
    """Base class for all package errors."""


class ValidationError(TailRiskError):
    """Invalid model parameters or configuration."""


class ThresholdTooExtremeError(TailRiskError):
    """A marginal tail probability underflowed below the float floor (1e-300)."""


class NumericalAbortError(TailRiskError):
    """A run exceeded its numerical-failure budget and was aborted."""
