"""The CLI's pyramid audit prints what the library's records would give, building none.

The expected exit code and stdout come from parse_manifest, pyramid_report
and render_report. Then TestRecord's two constructors are made to raise,
and cli.main on the same manifest must still print the same bytes and
return the same code: the audit built no record.
"""

import random

import pytest

from heatcg import cli
from heatcg.testpyramid import (
    Layer,
    TestRecord,
    TestStatus,
    parse_manifest,
    pyramid_report,
    render_report,
)

HEADER = "layer,name,duration_ms,status\n"


def seeded_manifest(seed: int, rows: int, layer_weights) -> str:
    rng = random.Random(seed)
    lines = [HEADER]
    for k in range(rows):
        (layer,) = rng.choices(list(Layer), layer_weights)
        (status,) = rng.choices(list(TestStatus), [90, 3, 2, 1, 3, 1])
        duration = rng.choice([rng.uniform(0.0, 99.0), rng.uniform(0.0, 150.0)])
        lines.append(f'{layer.value},"case {k}, seeded",{duration!r},{status.value}\n')
    return "".join(lines)


def expected_exit(report) -> int:
    if not report.pyramid_ok:
        return 3
    bad = report.status_counts[TestStatus.FAIL] + report.status_counts[TestStatus.TIMEOUT]
    return 1 if bad or report.slow_unit_tests else 0


def refuse(*args, **kwargs):
    raise AssertionError("the CLI audit built a TestRecord")


@pytest.mark.parametrize("seed, layer_weights", [(3, (6, 3, 1)), (5, (3, 5, 2))],
                         ids=["pyramid", "inverted"])
def test_the_cli_audit_prints_the_library_report_without_records(
    seed, layer_weights, tmp_path, capsys
):
    path = tmp_path / "manifest.csv"
    path.write_text(seeded_manifest(seed, 2000, layer_weights), encoding="utf-8")
    report = pyramid_report(parse_manifest(path.read_text(encoding="utf-8")))
    want_code, want_stdout = expected_exit(report), render_report(report)

    capsys.readouterr()
    # undone before the test ends: a --manifest-out run records each test as a TestRecord
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TestRecord, "_trusted", refuse)
        patch.setattr(TestRecord, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            TestRecord(Layer.UNIT, "a", 1.0, TestStatus.OK)
        code = cli.main(["pyramid", str(path)])
    assert code == want_code
    assert capsys.readouterr().out.encode() == want_stdout.encode()
