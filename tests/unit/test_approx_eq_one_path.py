"""approx_eq: one rounding rule and one evaluation for both precisions.

The reference below states the comparison as two separate rules, float32
scalars under errstate for single precision and Python floats for double,
and a seeded sweep checks that approx_eq gives the same answer.
"""

import random

import numpy as np
import pytest

from heatcg.numkit import FloatCompareSpec, Precision, approx_eq

SINGLE = FloatCompareSpec(precision_kind=Precision.SINGLE)
TOLERANCES = (1, 4, 16.0, 1e6, 1e30)


def reference(a: float, b: float, tolerance: float, precision: Precision):
    """The comparison's result, or None where it must raise ValueError."""
    if precision is Precision.SINGLE:
        with np.errstate(over="ignore"):
            x, y, t = np.float32(a), np.float32(b), np.float32(tolerance)
            if not (np.isfinite(x) and np.isfinite(y) and np.isfinite(t)):
                return None
            threshold = np.maximum(np.abs(x), np.abs(y)) * np.float32(2.0**-23) * t
            return bool(np.abs(x - y) <= threshold)
    x, y = float(a), float(b)
    return abs(x - y) <= max(abs(x), abs(y)) * 2.0**-52 * float(tolerance)


def sweep(seed: str, count: int):
    """Seeded (a, b) pairs from 1e-45 to 1e308: ties, sign flips, neighbours, strangers."""
    rng = random.Random(seed)
    for _ in range(count):
        a = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-45.0, 308.0)
        kind = rng.randrange(5)
        if kind == 0:
            b = a
        elif kind == 1:
            b = -a
        elif kind == 2:
            b = a * (1.0 + rng.randint(-40, 40) * 2.0 ** rng.choice((-52, -23)))
        elif kind == 3:
            b = float(np.float32(a)) if abs(a) < 3e38 else a
        else:
            b = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-45.0, 308.0)
        yield a, b


@pytest.mark.filterwarnings("error")
def test_opposite_single_values_whose_difference_overflows_are_unequal():
    assert approx_eq(3e38, -3e38, SINGLE) is False


@pytest.mark.filterwarnings("error")
def test_a_single_threshold_that_overflows_admits_any_finite_difference():
    assert approx_eq(3e38, 1e38, FloatCompareSpec(1e30, Precision.SINGLE)) is True


@pytest.mark.filterwarnings("error")
def test_opposite_double_values_whose_difference_overflows_are_unequal():
    assert approx_eq(np.float64(1e308), np.float64(-1e308)) is False


@pytest.mark.filterwarnings("error")
def test_a_multiplier_beyond_single_range_is_a_value_error_naming_it():
    spec = FloatCompareSpec(1e39, Precision.SINGLE)
    with pytest.raises(ValueError, match=r"tolerance_multiplier.*1e\+39"):
        approx_eq(0.0, 0.0, spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize("wrap", [float, np.float64], ids=["float", "float64"])
def test_one_path_matches_the_two_rules_on_a_seeded_sweep(precision, wrap):
    for tolerance in TOLERANCES:
        spec = FloatCompareSpec(tolerance, precision)
        for a, b in sweep(f"{precision.value} {tolerance!r}", 120):
            expected = reference(a, b, tolerance, precision)
            if expected is None:
                with pytest.raises(ValueError):
                    approx_eq(wrap(a), wrap(b), spec)
            else:
                assert approx_eq(wrap(a), wrap(b), spec) is expected, (a, b, tolerance)


@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize("bad", [1, 0, True, False])
def test_ints_and_bools_are_still_type_errors(precision, bad):
    spec = FloatCompareSpec(precision_kind=precision)
    with pytest.raises(TypeError):
        approx_eq(bad, 1.0, spec)
    with pytest.raises(TypeError):
        approx_eq(1.0, bad, spec)
