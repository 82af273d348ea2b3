"""In a fresh interpreter the first package attribute access returns the module's object."""

import subprocess
import sys

import pytest


@pytest.mark.parametrize("name,check", [
    ("solve_heat", "first is importlib.import_module('heatcg.heat1d').solve_heat"),
    ("__all__", "'solve_heat' in first and '__version__' in first"),
])
def test_the_first_access_loads_and_returns_the_name(name, check):
    code = f"import importlib, heatcg; first = heatcg.{name}; raise SystemExit(0 if {check} else 3)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
