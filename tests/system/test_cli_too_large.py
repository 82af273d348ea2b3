"""A problem too large to allocate: one error line, exit 2, no traceback.

At N = 2**20 a dense solve needs two N x N grids, 16 TiB, more than the
physical memory of any machine this runs on. The CLI compares that need
with the machine's physical memory before it allocates anything, so the
result does not depend on whether the kernel would refuse the allocation
or hand it out lazily. An allocation that fails anyway (here, a stubbed
solve) also exits 2, and names --storage crs only to a dense solve.
"""

import subprocess
import sys

import pytest

from heatcg import cli


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_dense_solve_larger_than_memory_exits_2_before_allocating(command):
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", command, "--cells", str(2**20)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")
    assert "--storage crs" in proc.stderr


@pytest.mark.parametrize("storage", ["dense", "crs"])
def test_a_failed_allocation_exits_2_and_suggests_crs_only_to_dense(
    storage, monkeypatch, capsys
):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(cli, "solve_heat", out_of_memory)
    assert cli.main(["solve", "--cells", "4", "--storage", storage]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: out of memory: Unable to allocate 8.00 TiB")
    assert ("--storage crs" in captured.err) == (storage == "dense")
