"""The shared scalar check at each public boundary keeps its exception and label."""

import pytest

from heatcg import (
    CgConfig,
    ComplexNumber,
    FloatCompareSpec,
    HeatProblem,
    Layer,
    TestRecord,
    TestStatus,
    Vector,
    approx_eq,
    pyramid_report,
    vec_scale,
)

NAN = float("nan")


@pytest.mark.parametrize(
    "build, error, label",
    [
        (lambda: HeatProblem(gamma=True), TypeError, "gamma"),
        (lambda: HeatProblem(domain_length=-1), ValueError, "domain_length"),
        (lambda: HeatProblem(boundary_left="0"), TypeError, "boundary_left"),
        (lambda: HeatProblem(boundary_right=NAN), ValueError, "boundary_right"),
        (lambda: CgConfig(tolerance=None), TypeError, "tolerance"),
        (lambda: CgConfig(tolerance=0), ValueError, "tolerance"),
        (lambda: vec_scale(NAN, Vector([1.0])), ValueError, "scale factor"),
        (lambda: FloatCompareSpec(tolerance_multiplier="1"), TypeError, "tolerance_multiplier"),
        (lambda: FloatCompareSpec(tolerance_multiplier=-1.0), ValueError, "tolerance_multiplier"),
        (lambda: approx_eq(1.0, NAN), ValueError, "b"),
        (lambda: ComplexNumber(1.0, float("inf")), ValueError, "imaginary_part"),
        (lambda: TestRecord(Layer.UNIT, "t", -0.5, TestStatus.OK), ValueError, "duration_ms"),
        (lambda: TestRecord(Layer.UNIT, "t", False, TestStatus.OK), TypeError, "duration_ms"),
        (lambda: pyramid_report([], unit_budget_ms=0.0), ValueError, "unit_budget_ms"),
    ],
)
def test_rejection_keeps_type_and_label(build, error, label):
    with pytest.raises(error, match=f"^{label} "):
        build()


def test_zero_duration_is_allowed():
    assert TestRecord(Layer.UNIT, "t", 0, TestStatus.OK).duration_ms == 0.0


def test_complex_parts_may_be_integers_beyond_float_range():
    total = ComplexNumber(10**400, 1) + ComplexNumber(1, 2)
    assert total.real_part == 10**400 + 1
