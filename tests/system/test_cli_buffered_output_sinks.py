"""A failed stdout exits 2 with one error line when stdout is block-buffered too.

Without PYTHONUNBUFFERED, the data a failed write could not take stays in
stdout's buffer, and the interpreter's flush at shutdown would fail on it
again: "Exception ignored ... OSError" on stderr and exit 120. Each case
here runs the CLI process with PYTHONUNBUFFERED removed from its
environment, into a full device and into a pipe whose reader has gone.
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


def run_buffered(command, stdout, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST, encoding="utf-8")
    argv = [str(manifest) if arg == "MANIFEST" else arg for arg in COMMANDS[command]]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: cannot write output:")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("command", COMMANDS)
def test_a_full_buffered_stdout_exits_2_with_one_line(command, tmp_path):
    with open("/dev/full", "w") as full:
        run_buffered(command, full, tmp_path)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_closed_buffered_stdout_pipe_exits_2_with_one_line(command, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child starts
    try:
        run_buffered(command, write_end, tmp_path)
    finally:
        os.close(write_end)
