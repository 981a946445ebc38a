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
