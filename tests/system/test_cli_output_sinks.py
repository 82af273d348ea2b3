"""Stdout that cannot take the data: one error line, exit 2, no traceback.

A full device (/dev/full) and a pipe whose reader has gone are the two
ways a write to stdout fails. Each command flushes its data before it
prints anything to stderr, so either failure leaves exactly one line there,
the same `error: cannot write output:` line as an unwritable --out file.
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


def run_cli(argv, stdout, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST, encoding="utf-8")
    argv = [str(manifest) if arg == "MANIFEST" else arg for arg in argv]
    return subprocess.run(
        [sys.executable, "-m", "heatcg", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


def assert_one_write_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: cannot write output:")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("command", COMMANDS)
def test_a_full_stdout_exits_2_with_one_line(command, tmp_path):
    with open("/dev/full", "w") as full:
        proc = run_cli(COMMANDS[command], full, tmp_path)
    assert_one_write_error(proc)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_closed_stdout_pipe_exits_2_with_one_line(command, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child starts
    try:
        proc = run_cli(COMMANDS[command], write_end, tmp_path)
    finally:
        os.close(write_end)
    assert_one_write_error(proc)
