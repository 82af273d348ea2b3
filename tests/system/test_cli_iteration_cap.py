"""CG on the heat system needs N iterations when T_L != T_R; a cap below N says so.

With the default cap of 1000, N = 1001 stops one step short: the run exits 1
and stderr carries one hint naming N and --max-iters. With the cap at N it
converges, and no hint is printed.
"""

import subprocess
import sys


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "heatcg", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_the_default_cap_stops_n_1001_short_with_a_hint():
    proc = run_cli("verify", "--cells", "1001", "--storage", "crs")
    assert proc.returncode == 1
    hints = [line for line in proc.stderr.splitlines() if line.startswith("hint:")]
    assert len(hints) == 1
    assert "N = 1001" in hints[0] and "--max-iters 1000" in hints[0]


def test_a_cap_of_n_converges_without_a_hint():
    proc = run_cli("verify", "--cells", "1001", "--storage", "crs", "--max-iters", "1001")
    assert proc.returncode == 0
    assert "verify: OK" in proc.stderr
    assert "hint:" not in proc.stderr and "--max-iters" not in proc.stderr
