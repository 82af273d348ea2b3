"""The pyramid subcommand on a manifest with a field csv refuses to read."""

import subprocess
import sys


def test_a_200000_character_name_exits_two_with_one_error_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("layer,name,duration_ms,status\nunit,a,1.0,ok\n"
                    f"unit,{'x' * 200_000},1.0,ok\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", "pyramid", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: line 3: field larger than field limit (131072)"
    ], proc.stderr
