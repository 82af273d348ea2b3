"""A CRS solve too large for physical memory is refused up front, as a dense one is.

A CRS solve holds at least its band, 3N float64 values and 3N intp
columns, 48 bytes a cell. When that lower bound exceeds the machine's
physical memory, the CLI prints one error: line and exits 2 before
anything is allocated; the problem is not an arithmetic failure, and no
other storage is suggested.
"""

import pytest

from heatcg import cli


@pytest.fixture
def trapped_solve(monkeypatch):
    def no_solve(*args, **kwargs):  # the check let it through: exit 2 with its own message
        raise MemoryError("solve_heat ran")

    monkeypatch.setattr(cli, "solve_heat", no_solve)


def _refusal(argv, capsys) -> str:
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "arithmetic" not in lines[0] and "--storage" not in lines[0]
    assert "solve_heat ran" not in lines[0]
    return lines[0]


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("cells", [2**60, 10**20])
def test_a_crs_problem_beyond_any_memory_exits_two_before_allocating(
    trapped_solve, capsys, command, cells
):
    if cli._physical_memory() is None:
        pytest.skip("this platform does not report its physical memory")
    line = _refusal([command, "--cells", str(cells), "--storage", "crs"], capsys)
    assert f"N = {cells}" in line and f"{48 * cells} bytes" in line


def test_the_bound_is_48_bytes_a_cell(trapped_solve, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 96_000)
    line = _refusal(["solve", "--cells", "2001", "--storage", "crs"], capsys)
    assert "96048 bytes" in line and "96000" in line
    assert cli.main(["solve", "--cells", "2000", "--storage", "crs"]) == 2
    assert "out of memory: solve_heat ran" in capsys.readouterr().err
