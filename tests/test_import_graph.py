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
