"""Run the CLI via ``python -m heatcg``; the installed ``heatcg`` script calls ``main``.

Importing this module sets up the process for one CLI run: one OpenBLAS
thread and no cyclic garbage collector. The library and ``heatcg.cli``
leave both alone, so code that imports them keeps its own settings.
"""

import gc
import os
import sys
from typing import Optional, Sequence

# heatcg calls no BLAS routine; a second OpenBLAS thread only spins after numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# a run leaves about 200 argparse objects in cycles and no array, so the collector's
# passes over numpy's and heatcg's objects are pure cost; off before numpy loads
gc.disable()
from . import cli  # noqa: E402  (numpy must load after the lines above)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI, then freeze the heap so the collection at shutdown skips it.

    Freezing keeps the normal shutdown: output is flushed and atexit handlers run.
    Data stdout could not take, which cli.main has reported, goes to os.devnull:
    the flush at shutdown would fail on it again and exit 120 (see the note on
    SIGPIPE in the signal module's documentation).
    """
    try:
        status = cli.main(argv)
        try:
            if sys.stdout is not None:  # None when fd 1 was closed at start-up
                sys.stdout.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return status
    finally:  # also on an argparse exit, which raises SystemExit
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
