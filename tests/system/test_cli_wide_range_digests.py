"""What `heatcg solve` ships at wide range, pinned: stdout's SHA-256, the exit code and the summary.

Large N on the CRS path, a large gamma, a large boundary value, and a
tiny coupling. Any change to these outputs fails here, so a change that
moves them on purpose has to name itself.

The last two cases are known wrong answers, pinned as they ship:
- N = 1200 with --t-right 1e8 reports converged=True with a recurrence
  residual of 6.2e-22, while its true residual ||b - A x|| is about 7e-3;
- --gamma 1e-300 --length 1e-8 --cells 4 prints an all-zero profile and
  exits 0 with iterations=0 residual_norm=0: b's only nonzero component
  is 8e-292, and its squared norm underflows to 0.0.
"""

import hashlib
import subprocess
import sys

import pytest

CASES = {
    "crs-1600": (
        ["--storage", "crs", "--cells", "1600", "--max-iters", "6400"],
        "2a5b12b958dcf1c957190ca2aa6250c5aba1ae12b030d3e201768fc436605e76",
        "cells=1600 storage=crs converged=True iterations=1600 "
        "residual_norm=1.0336963628915288e-13",
    ),
    "crs-6400": (
        ["--storage", "crs", "--cells", "6400", "--max-iters", "25600"],
        "9a1ed0a092c96be1c35b2e1619e1c3618b09c4385439c4d33c1f9e6cb0bc8c02",
        "cells=6400 storage=crs converged=True iterations=6400 "
        "residual_norm=4.0861467156142416e-13",
    ),
    "gamma-1e6": (
        ["--storage", "crs", "--cells", "400", "--gamma", "1e6"],
        "3ccb05f95185bf210cd3e61ff0737c1c91358475961c62974c24b5ec8da840cf",
        "cells=400 storage=crs converged=True iterations=651 "
        "residual_norm=9.7630144936182876e-11",
    ),
    "t-right-1e8": (
        ["--storage", "crs", "--cells", "200", "--t-right", "1e8"],
        "7e6942f72c3e61b16cbae11de3ab15de78e1f237480ea0f3edf836f8d93357a8",
        "cells=200 storage=crs converged=True iterations=398 "
        "residual_norm=5.3316009886652746e-11",
    ),
    "t-right-1e8-1200-known-wrong": (
        ["--storage", "crs", "--cells", "1200", "--t-right", "1e8", "--max-iters", "6000"],
        "91850266fc97903d81a9b9c24bf963e2a16ac45a2a92f541bb33d7850bbae451",
        "cells=1200 storage=crs converged=True iterations=2400 "
        "residual_norm=6.1712929859714363e-22",
    ),
    "all-zero-known-wrong": (
        ["--gamma", "1e-300", "--length", "1e-8", "--cells", "4"],
        "2a00845707c9e85edf63913d86f8011abac21cc3a981681aa4b1294b9a452158",
        "cells=4 storage=dense converged=True iterations=0 residual_norm=0",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_the_output_exit_code_and_summary_are_the_pinned_ones(case):
    args, digest, summary = CASES[case]
    proc = subprocess.run([sys.executable, "-m", "heatcg", "solve", *args],
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr.decode().splitlines()) == (0, [summary])
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
