"""A negative value written with an exponent is an option's value, not an option."""

import subprocess
import sys


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "heatcg", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_a_separate_negative_exponent_value_matches_the_joined_form():
    separate = run_cli("solve", "--cells", "2", "--t-right", "-1e3")
    joined = run_cli("solve", "--cells", "2", "--t-right=-1e3")
    assert separate.returncode == joined.returncode == 0, separate.stderr
    assert separate.stdout == joined.stdout
    assert separate.stderr == joined.stderr
    assert float(separate.stdout.splitlines()[-1].split(",")[1]) < -700.0


def test_a_negative_exponent_tolerance_is_refused_by_the_config_check():
    proc = run_cli("verify", "--tol", "-1e-10")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: heatcg verify")
    assert "tolerance must be a finite positive real" in proc.stderr
    assert proc.stdout == ""
