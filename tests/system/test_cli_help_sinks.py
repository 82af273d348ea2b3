"""Help that stdout cannot take exits 2 with one error line, buffered or not.

argparse writes --help itself and swallows a failed write, so an
unbuffered stdout lost the help and exited 0, and a buffered one failed
only in the interpreter's flush at shutdown: "Exception ignored ...
OSError" and exit 120. The CLI's help goes through the same flushed write
as a command's data, so both modes exit 2 with the `error: cannot write
output:` line that a full stdout gives a command.
"""

import os
import subprocess
import sys

import pytest

HELP_ARGV = {
    "--help": ["--help"],
    "-h": ["-h"],
    "solve --help": ["solve", "--help"],
    "pyramid -h": ["pyramid", "-h"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", HELP_ARGV)
def test_help_into_a_full_stdout_exits_2_with_one_line(argv, buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "heatcg", *HELP_ARGV[argv]],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: cannot write output:")


def test_help_into_a_pipe_is_printed_whole_with_exit_0():
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: heatcg")
    assert proc.stdout.endswith("\n")
