"""The manifest parser checks each name and duration itself, with the same messages."""

import pytest

from heatcg.testpyramid import (
    Layer,
    ManifestError,
    TestRecord,
    TestStatus,
    parse_manifest,
)

HEADER = "layer,name,duration_ms,status\n"
GOOD = "unit,fine,1,ok\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("unit,,1,ok\n", "line 3: name must be non-empty"),
        ('unit,"a\nb",1,ok\n', "line 4: name must not contain line breaks: 'a\\nb'"),
        ('unit,"a\rb",1,ok\n', "line 3: name must not contain line breaks: 'a\\rb'"),
        ("unit,a,-1,ok\n", "line 3: duration_ms must be a finite non-negative real, got -1.0"),
        ("unit,a,nan,ok\n", "line 3: duration_ms must be a finite non-negative real, got nan"),
        ("unit,a,inf,ok\n", "line 3: duration_ms must be a finite non-negative real, got inf"),
        ("unit,,nan,ok\n", "line 3: name must be non-empty"),
    ],
)
def test_bad_names_and_durations_keep_their_messages_and_lines(row, message):
    with pytest.raises(ManifestError) as caught:
        parse_manifest(HEADER + GOOD + row + GOOD)
    assert str(caught.value) == message


def test_parsed_records_equal_checked_records():
    records = parse_manifest(HEADER + 'unit,"a, b",-0.0,skipped\nsystem,c,2.5,ok\n')
    expected = [
        TestRecord(Layer.UNIT, "a, b", -0.0, TestStatus.SKIPPED),
        TestRecord(Layer.SYSTEM, "c", 2.5, TestStatus.OK),
    ]
    assert records == expected
    assert [hash(r) for r in records] == [hash(r) for r in expected]
    assert [type(r.duration_ms) for r in records] == [float, float]


def test_parsed_records_stay_frozen():
    (record,) = parse_manifest(HEADER + GOOD)
    with pytest.raises(AttributeError):
        record.name = "other"


@pytest.mark.parametrize("name", ["", "a\nb", "a\rb"])
def test_the_public_record_keeps_its_name_checks(name):
    with pytest.raises(ValueError, match="name must"):
        TestRecord(Layer.UNIT, name, 1.0, TestStatus.OK)
