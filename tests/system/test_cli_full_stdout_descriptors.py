"""A run whose stdout is full leaves no file descriptor open behind it.

heatcg.__main__.main points a stdout that could not be flushed at
os.devnull, through a descriptor it opens, duplicates and closes. The
child wraps sys.stdout around /dev/full, so the solve's output fails and
main returns 2, and counts /proc/self/fd before and after the call. It
runs in a child process: importing heatcg.__main__ turns the cyclic
collector off, and main freezes the heap.
"""

import os
import subprocess
import sys

import pytest

CHILD = """
import os, sys
sys.stdout = open("/dev/full", "w")
import heatcg.__main__ as entry
before = len(os.listdir("/proc/self/fd"))
status = entry.main(["solve", "--cells", "3"])
after = len(os.listdir("/proc/self/fd"))
print(status, before, after, file=sys.__stdout__)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
def test_main_on_a_full_stdout_returns_2_and_closes_what_it_opened():
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, before, after = map(int, proc.stdout.split())
    assert status == 2
    assert after == before
