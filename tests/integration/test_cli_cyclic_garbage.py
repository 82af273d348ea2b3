"""An in-process CLI run leaves no numpy array in cyclic garbage.

The CLI process runs with the cyclic collector off, so anything a run
leaves in a reference cycle stays until the process ends. These runs save
every unreachable object (DEBUG_SAVEALL) and look for arrays among the
objects they hold. numpy arrays are not tracked by the collector, so an
array kept alive only by a cycle shows up as a referent of a saved object,
never as one itself.
"""

import gc
from contextlib import contextmanager

import numpy as np
import pytest

from heatcg import cli

MANIFEST = (
    "layer,name,duration_ms,status\n"
    "unit,a,1.0,ok\nunit,b,250.0,fail\nintegration,c,10.0,ok\nsystem,d,99.0,timeout\n"
)


@contextmanager
def saved_cyclic_garbage():
    """Yield a list that, on exit, holds what a collection would have freed since entry."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    saved = []
    try:
        yield saved
        gc.collect()
        saved.extend(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def arrays_held_by(garbage):
    held = [obj for obj in garbage if isinstance(obj, np.ndarray)]
    for obj in garbage:
        held.extend(ref for ref in gc.get_referents(obj) if isinstance(ref, np.ndarray))
    return held


def test_a_cycle_holding_an_array_is_seen():
    class Node:
        pass

    with saved_cyclic_garbage() as garbage:
        node = Node()
        node.me, node.array = node, np.zeros(3)
        del node
    assert len(arrays_held_by(garbage)) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", "--cells", "300"], 0),
        (["solve", "--cells", "300", "--storage", "crs"], 0),
        (["verify", "--cells", "300", "--storage", "crs"], 0),
        (["solve", "--cells", "2", "--t-right", "1e200"], 2),  # overflow
        (["solve", "--cells", "3", "--bogus"], "usage"),
        (["pyramid", "MANIFEST"], 1),
    ],
    ids=["dense", "crs", "verify", "overflow", "bad-option", "pyramid"],
)
def test_a_run_leaves_no_array_in_cyclic_garbage(argv, code, tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST, encoding="utf-8")
    argv = [str(manifest) if arg == "MANIFEST" else arg for arg in argv]
    with saved_cyclic_garbage() as garbage:
        if code == "usage":
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2
        else:
            assert cli.main(argv) == code
    capsys.readouterr()
    assert arrays_held_by(garbage) == []
