"""Shared test configuration.

Three responsibilities: deterministic property-test settings, an
opt-in manifest recorder, and hypothesis's start-up run before the
first test, so that no test's duration carries it. Running pytest with
--manifest-out=PATH writes a layer,name,duration_ms,status CSV
describing the run, with the layer taken from the tests/unit,
tests/integration, tests/system directory the test lives in. Tests
outside those directories are not recorded.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from heatcg.testpyramid import Layer, TestRecord, TestStatus, render_manifest

settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("deterministic")

_LAYER_DIRS = {layer.value: layer for layer in Layer}


def pytest_addoption(parser):
    parser.addoption(
        "--manifest-out",
        action="store",
        default=None,
        help="write a layer,name,duration_ms,status manifest CSV for this run",
    )


def _layer_of(nodeid: str):
    path = nodeid.split("::", 1)[0]
    parts = path.split("/")
    for part in parts[:-1]:  # directory components only
        if part in _LAYER_DIRS:
            return _LAYER_DIRS[part]
    return None


def _prose_name(nodeid: str) -> str:
    name = nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_"):
        name = name[len("test_"):]
    return name.replace("_", " ")


class _ManifestRecorder:
    def __init__(self, path: str) -> None:
        self.path = path
        self.records: list[TestRecord] = []

    def pytest_runtest_logreport(self, report) -> None:
        layer = _layer_of(report.nodeid)
        if layer is None:
            return
        status = None
        if report.when == "call":
            if hasattr(report, "wasxfail"):
                status = (
                    TestStatus.UNEXPECTED_PASS if report.passed else TestStatus.EXPECTED_FAIL
                )
            elif report.passed:
                status = TestStatus.OK
            elif report.failed:
                status = TestStatus.FAIL
            elif report.skipped:
                status = TestStatus.SKIPPED
        elif report.when == "setup":
            if report.skipped:
                status = TestStatus.SKIPPED
            elif report.failed:
                status = TestStatus.FAIL
        if status is None:
            return
        self.records.append(
            TestRecord(
                layer=layer,
                name=_prose_name(report.nodeid),
                duration_ms=report.duration * 1000.0,
                status=status,
            )
        )

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        Path(self.path).write_text(render_manifest(self.records), encoding="utf-8")


def pytest_configure(config):
    path = config.getoption("--manifest-out")
    if path:
        config.pluginmanager.register(_ManifestRecorder(path), "manifest-recorder")


def pytest_collection_finish(session):
    """Pay hypothesis's once-a-process start-up before the first test runs.

    The first @given call in a process registers numpy's PRNG behind a
    gc.collect(), and the first random integer draw that asks for a
    constant (one in twenty) scans every loaded module for constants:
    60-70 ms together, which would count against whichever property test
    runs first and push it over a unit test's 100 ms budget. The first
    example is the simplest one and draws nothing at random, so a few
    examples of 100 integers each make sure the scan happens here. Run
    after collection, when the test modules and what they import are
    loaded, it sees the same modules the first test would have seen.
    """

    @given(st.lists(st.integers(), min_size=100, max_size=100))
    @settings(max_examples=5, database=None)
    def start_hypothesis(_):
        pass

    start_hypothesis()
