"""A failed write to stdout, in process: exit 2, one error line, no array left in a cycle.

The CLI process runs with the cyclic collector off, so the failure path
must not keep the exception (its traceback holds the frames that hold the
solution's arrays) in a reference cycle.
"""

import errno
import gc
import io
from contextlib import contextmanager

import numpy as np

from heatcg import cli


class FullStream(io.TextIOBase):
    """A text stream whose every write and flush fails as a full device does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


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


def test_a_full_stdout_returns_2_with_one_error_line_and_no_cyclic_array(
    monkeypatch, capsys
):
    monkeypatch.setattr("sys.stdout", FullStream())
    with saved_cyclic_garbage() as garbage:
        assert cli.main(["solve", "--cells", "3"]) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: cannot write output: [Errno 28] No space left on device")
    assert arrays_held_by(garbage) == []
