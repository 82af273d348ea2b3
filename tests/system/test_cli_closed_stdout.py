"""A process started with fd 1 closed exits 2 with one error line, no traceback.

Python then sets sys.stdout to None. The CLI treats that as a stdout it
cannot write to, like a full device or a pipe whose reader has gone (see
test_cli_output_sinks.py): exit 2 and one `error: cannot write output:`
line on stderr, for solve, verify and a pyramid audit that passes.
"""

import os
import subprocess
import sys

import pytest

MANIFEST = "layer,name,duration_ms,status\nunit,a,1.0,ok\nintegration,b,2.0,ok\nsystem,c,3.0,ok\n"
COMMANDS = {
    "solve": ["solve", "--cells", "3"],
    "verify": ["verify", "--cells", "3"],
    "pyramid": ["pyramid", "MANIFEST"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_closed_fd_1_exits_2_with_one_line(command, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST, encoding="utf-8")
    argv = [str(manifest) if arg == "MANIFEST" else arg for arg in COMMANDS[command]]
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", *argv],
        stderr=subprocess.PIPE, text=True, timeout=120,
        preexec_fn=lambda: os.close(1),  # in the child, before the interpreter starts
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: cannot write output: stdout is closed\n"
