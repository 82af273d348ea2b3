"""In-memory spans recorded around calls into heatcg, and per-layer figures.

A span is (name, start, end, parent, op): perf_counter times in seconds,
the index of the enclosing span or None, and the operation it belongs to.
Spans stay in memory while a run measures and are written out at the end.
The process is single-threaded, so a span's children never overlap and
its self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; nesting follows the order of `with` blocks."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, op)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span._asdict()) + "\n")


def busy_by_op(spans: list[Span], name: str) -> dict[str, float]:
    """Total time spent in spans called `name`, per operation."""
    busy: dict[str, float] = {}
    for span in spans:
        if span.name == name:
            busy[span.op] = busy.get(span.op, 0.0) + span.duration
    return busy


def count_by_op(spans: list[Span], name: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in spans:
        if span.name == name:
            counts[span.op] = counts.get(span.op, 0) + 1
    return counts


def _child_time(spans: list[Span]) -> list[float]:
    """Per span, the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return covered


def self_by_op(spans: list[Span], name: str) -> dict[str, float]:
    """Time in spans called `name` not covered by their child spans, per op."""
    child_time = _child_time(spans)
    own: dict[str, float] = {}
    for index, span in enumerate(spans):
        if span.name == name:
            own[span.op] = own.get(span.op, 0.0) + span.duration - child_time[index]
    return own


def coverage(spans: list[Span], root: str) -> float:
    """Share of the `root` spans' time that their direct children cover."""
    child_time = _child_time(spans)
    total = covered = 0.0
    for index, span in enumerate(spans):
        if span.name == root:
            total += span.duration
            covered += child_time[index]
    return covered / total


def median_of(values: dict[str, float]) -> float:
    return statistics.median(values.values())
