"""Every public constructor holds its components to one real-number rule.

A bool or a non-number is a TypeError, and nan or an infinity a ValueError
that says "must be a finite real". Both name the constructor and the
component's index. An int or a numpy float becomes a plain float, and
-0.0 keeps its sign bit.
"""

import math

import numpy as np
import pytest

from heatcg import CrsMatrix, DenseMatrix, Vector
from testutil import assert_components_bitwise

BUILDERS = [
    (lambda values: Vector(values).components, "Vector"),
    (lambda values: DenseMatrix(1, len(values), values).entries, "DenseMatrix"),
    (
        lambda values: CrsMatrix(1, len(values), values, range(len(values)), [0, len(values)]).values,
        "CrsMatrix values",
    ),
]


@pytest.mark.parametrize("build, context", BUILDERS)
@pytest.mark.parametrize("bad", [True, False, "1.0"])
def test_a_bool_or_a_str_is_a_type_error_naming_the_component(build, context, bad):
    with pytest.raises(TypeError, match=f"^{context}: component 2 must be a real number"):
        build([1.0, 2, bad])


@pytest.mark.parametrize("build, context", BUILDERS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("inf")])
def test_a_non_finite_value_is_a_value_error_naming_the_component(build, context, bad):
    with pytest.raises(ValueError, match=f"^{context}: component 1 must be a finite real"):
        build([0.5, bad, 1.0])


@pytest.mark.parametrize("build, context", BUILDERS)
def test_ints_and_numpy_floats_become_plain_floats(build, context):
    components = build([3, np.float64(0.25), 2.5])
    assert all(type(x) is float for x in components)
    assert_components_bitwise(components, [3.0, 0.25, 2.5], context)


# a CrsMatrix stores no zeros, so it has no -0.0 to keep
@pytest.mark.parametrize("build, context", BUILDERS[:2])
def test_negative_zero_keeps_its_sign_bit(build, context):
    assert_components_bitwise(build([-0.0, np.float64(-0.0), 0.0]), [-0.0, -0.0, 0.0], context)
