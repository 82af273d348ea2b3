"""A stencil coupling gamma/dx below the normal range: one error line, exit 2."""

import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "heatcg", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("storage", ["dense", "crs"])
@pytest.mark.parametrize(
    "length",
    ["1e300", "1e10"],
    ids=["zero", "subnormal"],  # gamma/dx == 0.0 and 4e-310
)
def test_underflowing_coupling_exits_2_with_one_line(command, storage, length):
    proc = run_cli(command, "--gamma", "1e-300", "--length", length, "--cells", "4",
                   "--storage", storage)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")
    assert "gamma/dx" in proc.stderr
