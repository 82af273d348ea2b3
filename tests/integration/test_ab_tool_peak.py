"""tools/ab.py reports each side's peak bytes under tracemalloc, before the call counts.

The peak comes from one extra, untimed round per N and storage. A copy
whose solve_heat also holds one N x N array during the solve peaks at
least that array's 8 N^2 bytes above the checkout, while its bits, and
so the exit status, stay the same. At N = 200 the heat matrix's dense
view holds no grid, so the checkout's dense solve peaks below one grid.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "ab.py"
N = 200


def peaks(a: Path, b: Path) -> tuple[int, int]:
    """The A and B peak bytes of a one-round dense heat run at N; the run must exit 0."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--cells", str(N),
         "--storage", "dense", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, line = proc.stdout.splitlines()[1:]
    assert header.split()[-8:] == ["A", "peak", "B", "peak", "A", "calls/it", "B", "calls/it"]
    a_peak, b_peak = line.split()[-4:-2]
    return int(a_peak), int(b_peak)


def test_the_checkout_peaks_below_one_grid_on_both_sides():
    for peak in peaks(ROOT, ROOT):
        assert 0 < peak < 8 * N * N


def test_a_copy_that_holds_one_more_grid_peaks_that_much_higher(tmp_path):
    package = tmp_path / "src" / "heatcg"
    shutil.copytree(ROOT / "src" / "heatcg", package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "heat1d.py", "a", encoding="utf-8") as f:
        f.write(
            "\nimport numpy as _np\n_cg_solve = cg_solve\n\n\n"
            "def cg_solve(operator, b, cfg):\n"
            "    held = _np.ones((len(b), len(b)))\n"
            "    return _cg_solve(operator, b, cfg) if held.any() else None\n"
        )
    a_peak, b_peak = peaks(ROOT, tmp_path)
    assert b_peak - a_peak >= 8 * N * N, (a_peak, b_peak)
