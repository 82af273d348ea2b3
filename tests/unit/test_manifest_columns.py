"""_columns and _tally are parse_manifest and pyramid_report without records.

_columns checks a manifest's rows into four columns and _tally reports on
them; the CLI's audit calls the two directly. On seeded manifests the
columns equal the records' attribute columns, durations bit for bit, and
the tally equals the report field for field.
"""

import csv
import io
import itertools
import random

import pytest

from heatcg.testpyramid import (
    MANIFEST_HEADER,
    Layer,
    ManifestError,
    PyramidReport,
    TestStatus,
    _columns,
    _tally,
    parse_manifest,
    pyramid_report,
)

from testutil import same_bits

HEADER = "layer,name,duration_ms,status\n"
NAMES = ["plain", "a, b", 'says "hi"', '"quoted, with ""doubled"" quotes"']
# -0.0 keeps its sign, 1_0 is ten; 99.5 to 250 straddle the low budget below
DURATIONS = ["-0.0", "0", "1e-3", "1_0", "99.5", "100", "100.5", "250"]
SOME_SLOW, NONE_SLOW = 100.0, 1000.0


def manifest(seed: int, rows: int) -> str:
    """Every layer-status pair once, then rows drawn from a seeded generator."""
    rng = random.Random(seed)
    pairs = list(itertools.product(Layer, TestStatus))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for k in range(rows):
        drawn = (rng.choice(list(Layer)), rng.choice(list(TestStatus)))
        layer, status = pairs[k] if k < len(pairs) else drawn
        writer.writerow([layer.value, f"{rng.choice(NAMES)} {k}", rng.choice(DURATIONS), status.value])
    return out.getvalue()


TEXTS = [manifest(1, 300), manifest(7, 300), manifest(11, 40), HEADER]
IDS = ["seed-1", "seed-7", "seed-11", "header-only"]


def test_the_seeded_manifests_cover_quotes_and_every_duration_spelling():
    text = TEXTS[0]
    assert '""doubled""' in text and '"a, b' in text
    assert all(f",{duration}," in text for duration in DURATIONS)


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_columns_are_the_records_attribute_columns(text):
    records = parse_manifest(text)
    layers, names, durations, statuses = _columns(text)
    assert layers == [record.layer for record in records]
    assert names == [record.name for record in records]
    assert statuses == [record.status for record in records]
    assert len(durations) == len(records)
    assert all(same_bits(d, record.duration_ms) for d, record in zip(durations, records))
    assert all(type(d) is float for d in durations)


@pytest.mark.parametrize("budget", [SOME_SLOW, NONE_SLOW])
@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_the_tally_of_the_columns_is_the_report_of_the_records(text, budget):
    got = _tally(*_columns(text), budget)
    want = pyramid_report(parse_manifest(text), budget)
    assert type(got) is PyramidReport
    assert list(got.layer_counts.items()) == list(want.layer_counts.items())
    assert list(got.status_counts.items()) == list(want.status_counts.items())
    assert got.pyramid_ok is want.pyramid_ok
    assert got.slow_unit_tests == want.slow_unit_tests
    if text != HEADER:
        assert bool(got.slow_unit_tests) is (budget == SOME_SLOW)


GOOD_ROWS = HEADER + "unit,fine,1.5,ok\n" * 5000


@pytest.mark.parametrize(
    "row, message",
    [
        ("unit,a,1\n", "expected 4 fields, got 3"),
        ("unit,a,1,ok,extra\n", "expected 4 fields, got 5"),
        ("bogus,a,1,ok\n", "unknown layer 'bogus'"),
        ("unit,a,1,bogus\n", "unknown status 'bogus'"),
        ("unit,a,x,ok\n", "duration_ms must be a number, got 'x'"),
        ("unit,a,-1,ok\n", "duration_ms must be a finite non-negative real, got -1.0"),
        ("unit,a,nan,ok\n", "duration_ms must be a finite non-negative real, got nan"),
        ("unit,a,inf,ok\n", "duration_ms must be a finite non-negative real, got inf"),
        ("unit,,1,ok\n", "name must be non-empty"),
        ('unit,"a\rb",1,ok\n', "name must not contain line breaks: 'a\\rb'"),
        (f'unit,"{"x" * 200_000}",1,ok\n', "field larger than field limit (131072)"),
    ],
    ids=["3-fields", "5-fields", "layer", "status", "not-a-number", "negative", "nan", "inf",
         "empty-name", "line-break", "oversized"],
)
def test_a_bad_row_after_5000_good_ones_is_named_by_its_line(row, message):
    text = GOOD_ROWS + row + "unit,fine,1.5,ok\n"
    for read in (_columns, parse_manifest):
        with pytest.raises(ManifestError) as caught:
            read(text)
        assert str(caught.value) == f"line 5002: {message}"
