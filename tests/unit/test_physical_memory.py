"""cli._physical_memory reads the machine's memory where the platform says it.

The memory refusals are tested with it patched, so this pins the real
reading: on Linux, sysconf gives the page size and the page count.
"""

import sys

import pytest

from heatcg import cli


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux reports the pages")
def test_physical_memory_is_a_positive_int_on_linux():
    memory = cli._physical_memory()
    assert type(memory) is int
    assert memory > 0
