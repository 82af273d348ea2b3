"""An int too large for a float is a ValueError naming the input, never an OverflowError.

Python ints have no upper bound, and float(10**400) raises OverflowError.
Every public input that becomes a float must report it as the documented
ValueError with the input's label instead.
"""

import pytest

from heatcg import (
    CgConfig,
    CrsMatrix,
    DenseMatrix,
    FloatCompareSpec,
    HeatProblem,
    Layer,
    TestRecord,
    TestStatus,
    Vector,
    analytic_solution,
    approx_eq,
    mat_scale,
    solve_heat,
    vec_scale,
)

HUGE = 10**400


@pytest.mark.parametrize(
    "build, label",
    [
        (lambda: Vector([1.0, HUGE]), "Vector: component 1"),
        (lambda: Vector([-HUGE]), "Vector: component 0"),
        (lambda: DenseMatrix(1, 2, [0.5, HUGE]), "DenseMatrix: component 1"),
        (lambda: CrsMatrix(1, 1, [HUGE], [0], [0, 1]), "CrsMatrix values: component 0"),
        (lambda: vec_scale(HUGE, Vector([1.0])), "scale factor"),
        (lambda: mat_scale(-HUGE, DenseMatrix(1, 1, [1.0])), "scale factor"),
        (lambda: solve_heat(HeatProblem(gamma=HUGE), CgConfig()), "gamma"),
        (lambda: solve_heat(HeatProblem(domain_length=HUGE), CgConfig()), "domain_length"),
        (lambda: solve_heat(HeatProblem(boundary_left=-HUGE), CgConfig()), "boundary_left"),
        (lambda: solve_heat(HeatProblem(boundary_right=HUGE), CgConfig()), "boundary_right"),
        (
            lambda: approx_eq(1.0, 1.0, FloatCompareSpec(tolerance_multiplier=HUGE)),
            "tolerance_multiplier",
        ),
        (lambda: TestRecord(Layer.UNIT, "t", HUGE, TestStatus.OK), "duration_ms"),
    ],
    ids=[
        "vector", "vector_negative", "dense", "crs_values", "vec_scale", "mat_scale",
        "gamma", "domain_length", "boundary_left", "boundary_right",
        "tolerance_multiplier", "duration_ms",
    ],
)
def test_an_int_beyond_the_float_range_is_a_value_error_naming_the_input(build, label):
    with pytest.raises(ValueError, match=f"^{label} must be a finite real, got an int beyond"):
        build()


def test_ints_within_the_float_range_still_convert():
    assert Vector([10**308, -3]).components == (1e308, -3.0)
    assert vec_scale(2**1023, Vector([1.0])).components == (2.0**1023,)
    assert TestRecord(Layer.UNIT, "t", 10**300, TestStatus.OK).duration_ms == 1e300
    assert HeatProblem(gamma=10**300).gamma == 1e300


def test_int_boundary_values_whose_span_leaves_the_float_range_overflow_as_a_value_error():
    # each value fits a float, their difference does not
    problem = HeatProblem(number_of_cells=3, boundary_left=10**308, boundary_right=-(10**308))
    with pytest.raises(ValueError, match="^analytic_solution: the result overflowed"):
        analytic_solution(problem)
