"""solve --out to a path that cannot be written: one line, exit 2, no traceback."""

import subprocess
import sys


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "heatcg", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_out_into_missing_directory_exits_2_with_one_line(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    proc = run_cli("solve", "--cells", "3", "--out", str(target))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")
    assert not target.parent.exists()

