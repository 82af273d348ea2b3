"""Finite options whose arithmetic leaves binary64: one line, exit 2, no traceback."""

import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "heatcg", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize(
    "options",
    [
        ("--cells", "2", "--gamma", "1e308", "--t-right", "1e308"),  # assembly overflows
        ("--cells", "2", "--t-right", "1e200"),  # the residual norm overflows mid-solve
        ("--cells", "2", "--length", "5e-324"),  # dx underflows to zero
    ],
    ids=["assembly", "solve", "underflow"],
)
def test_non_finite_arithmetic_exits_2_with_one_line(command, options):
    proc = run_cli(command, *options)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")
