"""Each diagnostic line the CLI documents appears on stderr when its case happens."""

import re

from heatcg import cli

HEADER = "layer,name,duration_ms,status\n"


def _run(capsys, *argv):
    status = cli.main(list(argv))
    out, err = capsys.readouterr()
    return status, out, err.splitlines()


def test_solve_warns_when_the_cap_stops_it(capsys):
    status, out, err = _run(capsys, "solve", "--cells", "10", "--max-iters", "2")
    assert status == 1 and out.startswith("x,temperature")
    assert "warning: solver did not converge (iteration cap reached)" in err


def test_verify_prints_its_status_line(capsys):
    status, out, err = _run(capsys, "verify", "--cells", "10")
    assert status == 0
    pattern = (r"cells=10 converged=True iterations=10 residual_norm=\S+ "
               r"l2_error_vs_analytic=\S+ threshold=1e-08")
    assert [line for line in err if re.fullmatch(pattern, line)], err
    assert err[-1] == "verify: OK"


def test_verify_fails_by_name_when_the_solver_does_not_converge(capsys):
    status, out, err = _run(capsys, "verify", "--cells", "10", "--max-iters", "2")
    assert status == 1
    assert "verify: FAILED (solver did not converge)" in err
    assert "verify: FAILED (error at or above threshold)" not in err


def test_pyramid_names_the_counts_of_a_violated_shape(tmp_path, capsys):
    manifest = tmp_path / "inverted.csv"
    rows = "unit,u,1,ok\n" + "".join(f"integration,i{k},5,ok\n" for k in range(3))
    manifest.write_text(HEADER + rows, encoding="utf-8")
    status, out, err = _run(capsys, "pyramid", str(manifest))
    assert status == 3
    assert err == ["pyramid violated: unit=1 integration=3 system=0"]


def test_pyramid_names_failing_and_slow_tests(tmp_path, capsys):
    rows = "".join(f"unit,u{k},1,ok\n" for k in range(3)) + "unit,u3,1,fail\nunit,u4,500,ok\n"
    manifest = tmp_path / "failing.csv"
    manifest.write_text(HEADER + rows, encoding="utf-8")
    status, out, err = _run(capsys, "pyramid", str(manifest))
    assert status == 1
    assert err == ["audit failed: 1 failing/timed-out tests, 1 slow unit tests"]
