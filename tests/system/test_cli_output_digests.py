"""CLI stdout pinned to SHA-256 digests, for both storages.

A change to the kernels that moves one output bit changes a digest, so
a restructured solver is held to the same bytes. N = 2 takes the sparse
product's position-keyed passes, N = 400 and the verify run its sliced
diagonals, and N = 1 a single entry.
"""

import hashlib
import subprocess
import sys

import pytest

CASES = [
    (
        ["solve", "--cells", "400", "--gamma", "0.7", "--length", "3.1",
         "--t-left", "-2.5", "--t-right", "7.25"],
        "3c3a5946228fc846ebfe0da8f6ac4761a6b0821e6bd84eff19592849d39f1f0b",
    ),
    (
        ["solve", "--cells", "2", "--gamma", "0.7", "--length", "3.1",
         "--t-left", "-2.5", "--t-right", "7.25"],
        "8696a1711dbce55257cae54f780da9c07dc55bc27a28dceba9225db9f3d6eda1",
    ),
    (
        ["solve", "--cells", "1"],
        "b17a6218ea1730779ee97265646e64547e4eacf8a8571061a6715a3f1ff47c6d",
    ),
    (
        ["verify", "--cells", "200", "--t-left", "3", "--t-right", "-4"],
        "9bebd884ac07bc957ac0dfade55d9ab92efb1f2f078f7a3d9a99d3c653b3eb69",
    ),
]


@pytest.mark.parametrize("storage", ["dense", "crs"])
@pytest.mark.parametrize(
    "args, digest", CASES, ids=["solve-400", "solve-2", "solve-1", "verify-200"]
)
def test_stdout_bytes_match_the_pinned_digest(args, digest, storage):
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", *args, "--storage", storage],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
