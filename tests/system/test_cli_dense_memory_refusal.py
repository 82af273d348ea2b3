"""A dense solve that two N x N grids would push past physical memory is refused up front."""

import pytest

from heatcg import cli


@pytest.fixture
def small_machine(monkeypatch):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 100_000)


def test_a_dense_solve_beyond_memory_exits_two_without_solving(small_machine, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_heat must not run")

    monkeypatch.setattr(cli, "solve_heat", no_solve)
    assert cli.main(["solve", "--cells", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "160000 bytes" in lines[0] and "100000" in lines[0]
    assert "--storage crs" in lines[0]


def test_the_crs_solve_still_runs_on_that_machine(small_machine, capsys):
    assert cli.main(["solve", "--cells", "100", "--storage", "crs"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("x,temperature\n") and len(out.splitlines()) == 101
    assert "error" not in err
