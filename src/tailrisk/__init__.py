"""Monte Carlo estimation of tail probabilities for sums of dependent
log-Gaussian and log-elliptical risks, with a benchmark harness."""

from .errors import (NumericalAbortError, RootFindError, TailRiskError,
                     ThresholdTooExtremeError, ValidationError)
from .estimators import EstimatorKind, ReplicationContext, make_context
from .harness import RunStats, compare, run, variance_trend
from .linalg import FactorizationSet, factorize_all
from .model import (LogNormalParams, MaxIndexSet, ModelSpec,
                    check_mak_condition, equicorrelation, from_lognormal,
                    max_index_set, reference_model, to_lognormal)
from .randsrc import RngStream
from .rootfind import ExpSum, IntervalSet, PsiBounds, exceedance_set, psi_bounds
from .tails import (RadialLaw, asymptotic_alpha, chi_radial, exp_power_radial,
                    is_density, make_radial, marginal_tail, normal_tail,
                    sphere_density)

__version__ = "0.1.0"

__all__ = [
    "EstimatorKind", "ExpSum", "FactorizationSet", "IntervalSet",
    "LogNormalParams", "MaxIndexSet", "ModelSpec", "NumericalAbortError",
    "PsiBounds", "RadialLaw", "ReplicationContext", "RngStream",
    "RootFindError", "RunStats", "TailRiskError", "ThresholdTooExtremeError",
    "ValidationError", "asymptotic_alpha", "check_mak_condition", "chi_radial",
    "compare", "equicorrelation", "exceedance_set", "exp_power_radial",
    "factorize_all", "from_lognormal", "is_density", "make_context",
    "make_radial", "marginal_tail", "max_index_set", "normal_tail",
    "psi_bounds", "reference_model", "run", "sphere_density", "to_lognormal",
    "variance_trend",
]
