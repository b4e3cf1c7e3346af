"""Exception types shared across the package."""


class TailRiskError(Exception):
    """Base class for all package errors."""


class ValidationError(TailRiskError):
    """Invalid model parameters or configuration."""


class ThresholdTooExtremeError(TailRiskError):
    """Every marginal tail underflowed at u: no estimator but ``cmc`` can run.

    Raised by ``estimators.make_engine``, the one range rule of the package.
    """


class NumericalAbortError(TailRiskError):
    """A run exceeded its numerical-failure budget and was aborted."""
