"""--threshold and --unit-budget-ms accept only finite positive reals."""

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


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--threshold", "nan"),
        ("verify", "--threshold", "-inf"),
        ("verify", "--threshold", "tiny"),
        ("pyramid", "manifest.csv", "--unit-budget-ms", "0"),
        ("pyramid", "manifest.csv", "--unit-budget-ms", "inf"),
    ],
    ids=["threshold-nan", "threshold-negative", "threshold-text", "budget-zero", "budget-inf"],
)
def test_bad_value_is_invalid_usage_naming_the_option(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage" in proc.stderr.lower()
    assert f"argument {args[-2]}" in proc.stderr
    assert "Traceback" not in proc.stderr
