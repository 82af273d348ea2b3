"""A manifest field beyond csv's size limit is a ManifestError naming its line."""

import csv

import pytest

from heatcg.testpyramid import ManifestError, parse_manifest

HEADER = "layer,name,duration_ms,status\n"
LONG = "x" * 200_000  # csv's default field_size_limit is 131,072 characters


def test_a_long_name_names_the_line_it_is_on():
    assert len(LONG) > csv.field_size_limit()
    text = HEADER + "unit,a,1.0,ok\n" + f"unit,{LONG},1.0,ok\n"
    with pytest.raises(ManifestError, match=r"^line 3: field larger than field limit"):
        parse_manifest(text)


def test_a_long_header_field_is_line_one():
    with pytest.raises(ManifestError, match=r"^line 1: field larger than field limit"):
        parse_manifest(f"layer,{LONG},duration_ms,status\n")
