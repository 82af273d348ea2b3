"""--out belongs to solve alone: verify refuses it as a usage error."""

import subprocess
import sys


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "heatcg", *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
    )


def test_verify_refuses_out_with_usage_and_writes_nothing(tmp_path):
    target = tmp_path / "x.csv"
    proc = run_cli("verify", "--cells", "3", "--out", str(target))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr and "--out" in proc.stderr
    assert not target.exists()


def test_solve_out_still_writes_the_profile(tmp_path):
    target = tmp_path / "x.csv"
    proc = run_cli("solve", "--cells", "3", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert target.read_text(encoding="utf-8") == run_cli("solve", "--cells", "3").stdout
