"""The pyramid subcommand on a manifest that is not valid UTF-8."""

import subprocess
import sys


def test_manifest_that_is_not_utf8_exits_two_with_one_error_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"layer,name,duration_ms,status\nunit,caf\xe9,1,ok\n")
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", "pyramid", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: cannot read manifest: ")
    assert "utf-8" in lines[0]
