"""A fixed reference kernel, and times expressed in reference seconds.

The host this benchmark runs on is shared: for seconds to minutes at a
time it gives a process half or twice the speed it gave it before, and
CPU time follows. The reference kernel is fixed pure-Python float work of
the kind heatcg's CG loop does (tuple-building vector updates and
accumulating reductions) and uses no heatcg code, so the ratio of an
operation's CPU time to the kernel's, run next to it, changes with the
program and much less with the host. A reference second is the CPU time
scaled so that one run of the kernel costs exactly REFERENCE_S.

This module imports nothing from heatcg, so that a fresh interpreter can
run the kernel before it imports heatcg.
"""

from __future__ import annotations

import time

REFERENCE_XS = tuple((i % 97) * 0.25 - 12.0 for i in range(1000))
REFERENCE_REPEATS = 100
REFERENCE_S = 0.02  # about the kernel's CPU time on an idle 2.0 GHz Xeon core


def reference_kernel() -> float:
    ys, acc = REFERENCE_XS, 0.0
    for _ in range(REFERENCE_REPEATS):
        ys = tuple(0.5 * x + y for x, y in zip(REFERENCE_XS, ys))
        for x, y in zip(REFERENCE_XS, ys):
            acc += x * y
    return acc


def reference_seconds() -> float:
    """CPU seconds of one run of the reference kernel."""
    c0 = time.process_time()
    reference_kernel()
    return time.process_time() - c0


def to_reference(cpu: list[float], ref: list[float]) -> list[float]:
    """CPU seconds in reference seconds: the i-th time is divided by the mean
    of the reference runs just before and after it (ref has one more entry)."""
    return [c * 2 * REFERENCE_S / (ref[i] + ref[i + 1]) for i, c in enumerate(cpu)]
