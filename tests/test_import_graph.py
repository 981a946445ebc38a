"""The package imports numpy only; scipy loads where it is first called."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reflectwalk

SRC = Path(reflectwalk.__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["reflectwalk", "reflectwalk.cli"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_lattice_series_loads_no_scipy_integrate():
    # the series blocks beyond an atom table are Gauss-Legendre sums, not quad
    code = ("import sys\n"
            "from reflectwalk import exact_1d, measures\n"
            "from family_helpers import power_tail_family\n"
            "for m in (measures.wiener_hopf_log_tail(10 ** 4),\n"
            "          power_tail_family(1.3, cutoff=5000)):\n"
            "    exact_1d.recurrence_criteria(m)\n"
            "    m.moment(0.5)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(tests)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_heavy_tailed_laws_load_no_scipy():
    # the log-gammas below k = 16, the subordinated law's constants and tail,
    # and the lower-branch Lambert W are in-house
    code = ("import sys\n"
            "import numpy as np\n"
            "from reflectwalk import diagnostics, measures\n"
            "k = np.arange(1, 40)\n"
            "measures.subordinator_pmf(0.3, k), measures.subordinator_tail(0.3, k)\n"
            "measures.subordinator_pmf(0.6, 3), measures.subordinator_tail(0.6, 2)\n"
            "diagnostics.SubordinatorSumSampler(0.6).sample_sum(1000, 50, np.random.default_rng(1))\n"
            "measures.wiener_hopf_log_tail(10).sample(np.random.default_rng(2), 1000)\n"
            "s = measures.subordinated(0.3)\n"
            "s.tail(5), s.tail(10 ** 6), s.prob(-3), s.prob(10 ** 5), s.moment(0.4)\n"
            "s.sample(np.random.default_rng(4), 10 ** 5)\n"
            "measures.LatticeSumSampler(measures.subordinated(0.6)).sample(\n"
            "    np.full(2000, 1000), np.random.default_rng(5))\n"
            "diagnostics.subordinated_return_exponent(0.6, 3, n_max=2 ** 10, replicas=20000,\n"
            "                                         chunk=20000)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
