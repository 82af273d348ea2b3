"""A CLI process loads numpy with one OpenBLAS thread; `import heatcg` loads no numpy.

Each case runs a fresh interpreter, since numpy reads OPENBLAS_NUM_THREADS
once, when it loads.
"""

import os
import subprocess
import sys

import pytest


def run_python(*args, blas_threads=None):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env
    )


def test_import_heatcg_loads_no_numpy():
    proc = run_python("-c", "import heatcg, sys; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_submodule_names_and_dunders_miss_without_loading_numpy():
    code = (
        "import heatcg, sys\n"
        "assert not hasattr(heatcg, 'cli') and not hasattr(heatcg, 'linalg')\n"
        "assert not hasattr(heatcg, '__wrapped__')\n"
        "print('numpy' in sys.modules)"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("blas_threads, expected", [(None, "1"), ("3", "3")])
def test_the_entry_point_sets_one_blas_thread_and_keeps_a_user_value(blas_threads, expected):
    code = "import os, heatcg.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = run_python("-c", code, blas_threads=blas_threads)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"


def test_traced_import_of_the_cli_lists_numkit_and_cli():
    # the benchmark's import probe reads these two modules' cumulative times
    proc = run_python("-X", "importtime", "-c", "import heatcg.cli")
    assert proc.returncode == 0, proc.stderr
    modules = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
    assert {"heatcg.numkit", "heatcg.cli"} <= modules


@pytest.mark.parametrize("storage", ["dense", "crs"])
def test_solve_prints_the_same_bytes_with_one_or_two_blas_threads(storage):
    args = ("-m", "heatcg", "solve", "--cells", "400", "--storage", storage)
    one = run_python(*args, blas_threads="1")
    two = run_python(*args, blas_threads="2")
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout
    assert one.stdout.count("\n") == 401
