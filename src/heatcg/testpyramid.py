"""Test-run manifest parsing and pyramid-shape auditing.

A manifest is a UTF-8 CSV file with LF line endings and the header
``layer,name,duration_ms,status``. Layers are unit, integration, system;
statuses are ok, fail, expected_fail, unexpected_pass, skipped, timeout.
Names containing commas are double-quoted by the writer.

A suite has pyramid shape when it contains at least as many unit tests as
integration tests and at least as many integration tests as system tests
(non-strict ordering). Unit tests are additionally held to a duration
budget, 100 ms by default.

One row loop, _columns, checks a manifest's rows into four columns
(layers, names, durations, statuses), and _tally reports on such columns.
parse_manifest builds its records from _columns, pyramid_report tallies
its records' fields, and the CLI's audit tallies _columns directly,
building no record.
"""

from __future__ import annotations

import csv
import io
import math
from enum import Enum
from typing import Iterable, Mapping, Sequence

from ._checks import checked_float, checked_instance, checked_real, frozen

__all__ = [
    "Layer",
    "TestStatus",
    "TestRecord",
    "PyramidReport",
    "ManifestError",
    "MANIFEST_HEADER",
    "DEFAULT_UNIT_BUDGET_MS",
    "parse_manifest",
    "render_manifest",
    "pyramid_report",
    "render_report",
]

MANIFEST_HEADER = ("layer", "name", "duration_ms", "status")
DEFAULT_UNIT_BUDGET_MS = 100.0


class Layer(Enum):
    UNIT = "unit"
    INTEGRATION = "integration"
    SYSTEM = "system"


class TestStatus(Enum):
    # not a test case; the attribute stops pytest from trying to collect it
    __test__ = False

    # declared in the order render_report lists them
    OK = "ok"
    EXPECTED_FAIL = "expected_fail"
    FAIL = "fail"
    UNEXPECTED_PASS = "unexpected_pass"
    SKIPPED = "skipped"
    TIMEOUT = "timeout"


_LAYER_BY_VALUE = {layer.value: layer for layer in Layer}
_STATUS_BY_VALUE = {status.value: status for status in TestStatus}


class ManifestError(ValueError):
    """Malformed manifest text; the message names the offending line."""


@frozen
class TestRecord:
    """One test's layer, human-readable name, duration, and outcome."""

    # not a test case; the attribute stops pytest from trying to collect it
    __test__ = False

    layer: Layer
    name: str
    duration_ms: float
    status: TestStatus

    def __post_init__(self) -> None:
        checked_instance(self.layer, Layer, "layer")
        checked_instance(self.status, TestStatus, "status")
        _check_name(checked_instance(self.name, str, "name"))
        duration = checked_float(self.duration_ms, "duration_ms", "non-negative")
        object.__setattr__(self, "duration_ms", duration)

    @classmethod
    def _trusted(cls, layer: Layer, name: str, duration_ms: float, status: TestStatus) -> TestRecord:
        """A record of values its producer has checked, built without re-checking them."""
        record = object.__new__(cls)
        record.__dict__.update(layer=layer, name=name, duration_ms=duration_ms, status=status)
        return record


def _check_name(name: str) -> None:
    if not name:
        raise ValueError("name must be non-empty")
    if "\n" in name or "\r" in name:  # csv accepts a quoted line break
        raise ValueError(f"name must not contain line breaks: {name!r}")


@frozen
class PyramidReport:
    """Aggregate counts plus the shape verdict and unit-budget offenders."""

    layer_counts: Mapping[Layer, int]
    status_counts: Mapping[TestStatus, int]
    pyramid_ok: bool
    slow_unit_tests: tuple[str, ...]


def parse_manifest(text: str) -> list[TestRecord]:
    """Parse manifest text into records, in file order.

    Raises ManifestError naming the line for a missing or wrong header,
    a wrong field count, an unknown layer or status, a bad duration, or a
    row csv cannot read.
    """
    return list(map(TestRecord._trusted, *_columns(text)))


def _columns(text: str) -> tuple[list[Layer], list[str], list[float], list[TestStatus]]:
    """The checked layers, names, durations and statuses of manifest text's rows, in file order."""
    reader = csv.reader(io.StringIO(checked_instance(text, str, "manifest text")))
    layers, names, durations, statuses = columns = ([], [], [], [])
    try:  # csv refuses a field over its size limit (and NUL, before Python 3.11)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError("line 1: missing header 'layer,name,duration_ms,status'")
        if tuple(header) != MANIFEST_HEADER:
            raise ManifestError(
                f"line 1: expected header 'layer,name,duration_ms,status', got {header!r}"
            )
        for row in reader:
            if len(row) != 4:
                raise ManifestError(f"line {reader.line_num}: expected 4 fields, got {len(row)}")
            layer_text, name, duration_text, status_text = row
            layer = _LAYER_BY_VALUE.get(layer_text)
            if layer is None:
                raise ManifestError(f"line {reader.line_num}: unknown layer {layer_text!r}")
            status = _STATUS_BY_VALUE.get(status_text)
            if status is None:
                raise ManifestError(f"line {reader.line_num}: unknown status {status_text!r}")
            try:
                duration = float(duration_text)
            except ValueError:
                raise ManifestError(
                    f"line {reader.line_num}: duration_ms must be a number, got {duration_text!r}"
                ) from None
            # a plain name and a finite non-negative duration pass as they are; only a
            # value the helpers could refuse goes to them, for their message
            if not (name and "\n" not in name and "\r" not in name and 0.0 <= duration < math.inf):
                try:
                    _check_name(name)
                    checked_real(duration, "duration_ms", "non-negative")
                except ValueError as exc:
                    raise ManifestError(f"line {reader.line_num}: {exc}") from None
            layers.append(layer)
            names.append(name)
            durations.append(duration)
            statuses.append(status)
        return columns
    except csv.Error as exc:
        raise ManifestError(f"line {reader.line_num}: {exc}") from None


def render_manifest(records: Iterable[TestRecord]) -> str:
    """Serialize records back to manifest text; inverse of parse_manifest."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for record in records:
        writer.writerow(
            [
                record.layer.value,
                record.name,
                repr(record.duration_ms),
                record.status.value,
            ]
        )
    return out.getvalue()


def pyramid_report(
    records: Sequence[TestRecord],
    unit_budget_ms: float = DEFAULT_UNIT_BUDGET_MS,
) -> PyramidReport:
    """Aggregate counts and audit the shape and the unit duration budget."""
    checked_real(unit_budget_ms, "unit_budget_ms", "positive")
    layers, names, durations, statuses = columns = ([], [], [], [])
    for record in records:
        if not isinstance(record, TestRecord):
            raise TypeError(f"records must be TestRecord values, got {type(record).__name__}")
        layers.append(record.layer)
        names.append(record.name)
        durations.append(record.duration_ms)
        statuses.append(record.status)
    return _tally(*columns, unit_budget_ms)


def _tally(layers: list[Layer], names: list[str], durations: list[float],
           statuses: list[TestStatus], unit_budget_ms: float) -> PyramidReport:
    """The report on checked columns of the records' layers, names, durations and statuses."""
    # list.count compares by identity first, so it is cheapest where most entries
    # match; a dict keyed by members would call Enum.__hash__, a Python function,
    # twice per record. Most tests pass: the other statuses are counted in the rest
    ok, unit = TestStatus.OK, Layer.UNIT
    rest = [status for status in statuses if status is not ok]
    status_counts = {status: rest.count(status) for status in TestStatus}
    status_counts[ok] = len(statuses) - len(rest)
    layer_counts = {layer: layers.count(layer) for layer in Layer}
    slow = [name for layer, name, duration in zip(layers, names, durations)
            if duration > unit_budget_ms and layer is unit]
    pyramid_ok = layer_counts[unit] >= layer_counts[Layer.INTEGRATION] >= layer_counts[Layer.SYSTEM]
    return PyramidReport(layer_counts, status_counts, pyramid_ok, tuple(slow))


def render_report(report: PyramidReport) -> str:
    """Deterministic text summary: status counts, layer counts, verdict."""
    lines = [f"{s.value.replace('_', ' ').title()}: {report.status_counts[s]}" for s in TestStatus]
    lines.extend(f"{layer.value}: {report.layer_counts[layer]}" for layer in Layer)
    lines.extend(f"slow unit test: {name}" for name in report.slow_unit_tests)
    lines.append(f"pyramid: {'OK' if report.pyramid_ok else 'VIOLATED'}")
    return "\n".join(lines) + "\n"
