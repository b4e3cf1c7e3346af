import numpy as np
import pytest

from tailrisk import from_lognormal, reference_model
from tailrisk.tails import log_is_density, log_sphere_density

# acceptance criteria register their PASS/FAIL lines here; printed at the end
ACCEPTANCE_RESULTS: list[tuple[str, str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid, desc, passed, detail in ACCEPTANCE_RESULTS:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {cid:>2}: {verdict}  {desc}"
                                    + (f"  [{detail}]" if detail else ""))


@pytest.fixture
def bench_model():
    """The d = 10 benchmark model (mu_i = i - 10, sigma2_i = i), rho = 0."""
    return reference_model(0.0)


def two_risk_model(rho=0.0, sigma2=(1.0, 1.0), mu=(0.0, 0.0)):
    return from_lognormal(mu, sigma2, rho)


def sphere_density(d, theta):
    """Density f(theta) of one uniform-sphere coordinate on (-1, 1).

    For d = 2 it is 1/(pi*sqrt(1-theta^2)), unbounded at the endpoints;
    quadrature against it should use ``tails.sphere_expectation``.
    """
    return np.exp(log_sphere_density(d, theta))


def is_density(a, b, x):
    """Importance density f_IS(a, b, x) on (-1, 1)."""
    return np.exp(log_is_density(a, b, x))


def run_mean_se(values):
    """Sample mean and its standard error."""
    values = np.asarray(values)
    return values.mean(), values.std(ddof=1) / np.sqrt(values.size)
