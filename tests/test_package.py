"""The package's public export list and its import footprint."""

import os
import subprocess
import sys

import tailrisk


def test_every_exported_name_resolves():
    missing = [name for name in tailrisk.__all__ if not hasattr(tailrisk, name)]
    assert missing == []
    assert len(set(tailrisk.__all__)) == len(tailrisk.__all__)


def fresh_interpreter_stdout(code):
    """stdout of ``code`` run by a fresh interpreter on this package's sources."""
    src = os.path.dirname(os.path.dirname(tailrisk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip()


def test_gaussian_runs_do_not_import_quadrature_or_optimize():
    # nothing in src imports scipy.integrate, and scipy.optimize serves only
    # the rn tuning; other Gaussian runs must load neither
    code = (
        "import sys\n"
        "import tailrisk as tr\n"
        "m = tr.reference_model(0.4)\n"
        "for kind in ('cmc', 'ak', 'mak', 'zr'):\n"
        "    tr.run(m, 2e4, kind, 100, seed=1)\n"
        "print(sorted(k for k in ('scipy.integrate', 'scipy.optimize')\n"
        "             if k in sys.modules))\n")
    assert fresh_interpreter_stdout(code) == "[]"


def test_elliptical_ak_does_not_import_quadrature():
    # the generic-radial marginal tail is a fixed rule, so neither the context
    # (stratification weights) nor an ak block loads scipy.integrate
    code = (
        "import sys\n"
        "import tailrisk as tr\n"
        "from tailrisk.tails import exp_power_radial\n"
        "m = tr.reference_model(0.4)\n"
        "m = tr.ModelSpec(lam=m.lam, beta=m.beta, gamma=m.gamma, sigma=m.sigma,\n"
        "                 radial=exp_power_radial(1.5))\n"
        "tr.run(m, 2e4, 'ak', 100, seed=1)\n"
        "print('scipy.integrate' in sys.modules)\n")
    assert fresh_interpreter_stdout(code) == "False"
