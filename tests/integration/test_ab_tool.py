"""tools/ab.py times two heatcg trees in one process and exits 1 when their bits differ.

The checkout against itself gives the same temperatures and iteration
counts on every round, so the tool exits 0. A copy whose solve_heat
hands the solver 1.5 times the right-hand side gives other temperatures,
so the tool names the round on stderr and exits 1.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "ab.py"


def ab(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--cells", "8", "--rounds", "3"],
        capture_output=True, text=True, timeout=120,
    )


def test_the_checkout_against_itself_exits_0():
    proc = ab(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:3] for line in lines[2:]] == [["8", "dense", "heat"], ["8", "crs", "heat"]]
    assert proc.stderr == ""


def test_a_copy_that_solves_to_other_bits_exits_1(tmp_path):
    package = tmp_path / "src" / "heatcg"
    shutil.copytree(ROOT / "src" / "heatcg", package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "heat1d.py", "a", encoding="utf-8") as f:
        f.write(
            "\nfrom .linalg import vec_scale\n_cg_solve = cg_solve\n\n\n"
            "def cg_solve(operator, b, cfg):\n"
            "    return _cg_solve(operator, vec_scale(1.5, b), cfg)\n"
        )
    proc = ab(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "bits differ: N = 8 dense heat, round 0" in proc.stderr
