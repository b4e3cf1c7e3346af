"""The package's public export list and its import footprint."""

import os
import subprocess
import sys

import tailrisk


def test_every_exported_name_resolves():
    missing = [name for name in tailrisk.__all__ if not hasattr(tailrisk, name)]
    assert missing == []
    assert len(set(tailrisk.__all__)) == len(tailrisk.__all__)


def test_gaussian_runs_do_not_import_quadrature_or_optimize():
    # scipy.integrate and scipy.optimize serve only the generic-radial
    # marginal tail and the rn tuning; other Gaussian runs must not load them
    code = (
        "import sys\n"
        "import tailrisk as tr\n"
        "m = tr.reference_model(0.4)\n"
        "for kind in ('cmc', 'ak', 'mak', 'zr'):\n"
        "    tr.run(m, 2e4, kind, 100, seed=1)\n"
        "print(sorted(k for k in ('scipy.integrate', 'scipy.optimize')\n"
        "             if k in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(tailrisk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
