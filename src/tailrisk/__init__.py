"""Monte Carlo estimation of tail probabilities for sums of dependent
log-Gaussian and log-elliptical risks, with a benchmark harness."""

from .errors import (NumericalAbortError, TailRiskError,
                     ThresholdTooExtremeError, ValidationError)
from .estimators import EstimatorKind, ReplicationContext, make_context
from .harness import RunStats, compare, run, variance_trend
from .linalg import factorize_all
from .model import (LogNormalParams, MaxIndexSet, ModelSpec, asymptotic_alpha,
                    check_mak_condition, equicorrelation, from_lognormal,
                    max_index_set, reference_model)
from .randsrc import RngStream
from .tails import (RadialLaw, chi_radial, exp_power_radial, make_radial,
                    normal_tail)

__version__ = "0.1.0"

__all__ = [
    "EstimatorKind", "LogNormalParams", "MaxIndexSet", "ModelSpec",
    "NumericalAbortError", "RadialLaw", "ReplicationContext", "RngStream",
    "RunStats", "TailRiskError", "ThresholdTooExtremeError", "ValidationError",
    "asymptotic_alpha", "check_mak_condition", "chi_radial", "compare",
    "equicorrelation", "exp_power_radial", "factorize_all", "from_lognormal",
    "make_context", "make_radial", "max_index_set", "normal_tail",
    "reference_model", "run", "variance_trend",
]
