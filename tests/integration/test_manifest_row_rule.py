"""parse_manifest accepts a row exactly when the shared helpers accept its fields.

A row's name is checked by _check_name and its duration by
checked_real(..., "non-negative"). parse_manifest calls them only for a
value they could refuse; these properties pin that shortcut to the
helpers: the same rows pass, and each refusal carries the helper's message
and the row's line number.
"""

import pytest
from hypothesis import example, given, strategies as st

from heatcg._checks import checked_real
from heatcg.testpyramid import Layer, ManifestError, TestStatus, _check_name, parse_manifest

from testutil import same_bits

HEADER = "layer,name,duration_ms,status\n"
GOOD_ROW = "unit,a plain name,1.5,ok\n"

# csv itself refuses a NUL on Python 3.10, before a row reaches the rule
names = st.one_of(
    st.text(st.characters(blacklist_characters="\x00"), max_size=12),
    st.sampled_from(["", "\n", "\r", "a\r\nb", "x\ny\n", ",", '"', " "]),
)
durations = st.one_of(
    st.floats().map(repr),  # nan, inf, -inf and -0.0 among them
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e999", "-1e999", "-0", "+inf", "5e-324", "-5e-324", "1_0"]),
)


def _quoted(field):
    return '"' + field.replace('"', '""') + '"'


def _helper_refusal(name, duration):
    try:
        _check_name(name)
        checked_real(duration, "duration_ms", "non-negative")
    except ValueError as exc:
        return str(exc)
    return None


@given(name=names, duration_text=durations, rows_before=st.integers(0, 3))
@example(name="", duration_text="1.0", rows_before=0)
@example(name="a\nb", duration_text="nan", rows_before=1)
@example(name="\r", duration_text="2", rows_before=0)
@example(name="", duration_text="-1", rows_before=0)
@example(name="t", duration_text="-0.0", rows_before=0)
@example(name="t", duration_text="nan", rows_before=2)
@example(name="t", duration_text="inf", rows_before=0)
@example(name="t", duration_text="-5e-324", rows_before=0)
def test_a_row_passes_exactly_when_the_helpers_accept_its_fields(name, duration_text, rows_before):
    text = HEADER + GOOD_ROW * rows_before + f"system,{_quoted(name)},{duration_text},fail\n"
    duration = float(duration_text)
    refusal = _helper_refusal(name, duration)
    if refusal is None:
        records = parse_manifest(text)
        assert len(records) == rows_before + 1
        last = records[-1]
        assert (last.layer, last.name, last.status) == (Layer.SYSTEM, name, TestStatus.FAIL)
        assert same_bits(last.duration_ms, duration)
    else:
        # csv counts physical lines, so the row's line is the one it ends on
        line = rows_before + 2 + name.count("\n")
        with pytest.raises(ManifestError) as info:
            parse_manifest(text)
        assert str(info.value) == f"line {line}: {refusal}"

