"""Rejection branches of the public API that no other in-process test reaches.

Each input is wrong in exactly one way, and the call must fail with the
documented exception and a message that names what is wrong.
"""

import pytest

from heatcg import (
    AssembledSystem,
    CgBreakdownError,
    CgConfig,
    CgState,
    DenseMatrix,
    HeatProblem,
    Layer,
    StencilCoefficients,
    TestRecord,
    TestStatus,
    Vector,
    assemble,
    cg_init,
    cg_solve,
    cg_step,
    parse_manifest,
    pyramid_report,
)

IDENTITY_3 = DenseMatrix(3, 3, [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])


def test_cg_solve_rejects_an_operator_of_another_size_than_b():
    with pytest.raises(ValueError, match="operator must be 2x2 like b, got 3x3"):
        cg_solve(IDENTITY_3, Vector([1.0, 2.0]), CgConfig())


def test_cg_init_rejects_a_list_as_b():
    with pytest.raises(TypeError, match="b must be a Vector, got list"):
        cg_init(IDENTITY_3, [1.0, 2.0, 3.0], Vector([0.0, 0.0, 0.0]))


def test_cg_step_with_a_zero_residual_breaks_down_instead_of_dividing_zero_by_zero():
    zero, d = Vector([0.0, 0.0, 0.0]), Vector([1.0, -2.0, 0.5])
    state = CgState(phi=zero, r=zero, d=d, alpha=0.0, beta=0.0, n=4)
    with pytest.raises(CgBreakdownError, match="rT r is exactly zero at iteration 4"):
        cg_step(state, IDENTITY_3)


def test_cg_solve_rejects_a_missing_config():
    with pytest.raises(TypeError, match="config must be a CgConfig, got NoneType"):
        cg_solve(IDENTITY_3, Vector([1.0, 2.0, 3.0]), None)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(a_p=3.0), "a_p must equal a_w \\+ a_e"),
        (dict(s_u=3.0), "s_u must equal -s_p"),
    ],
    ids=["a_p", "s_u"],
)
def test_stencil_identities_are_checked(fields, message):
    coefficients = dict(dx=0.5, a_w=2.0, a_e=2.0, a_p=4.0, s_p=-4.0, s_u=4.0)
    StencilCoefficients(**coefficients)  # the identities hold
    with pytest.raises(ValueError, match=message):
        StencilCoefficients(**{**coefficients, **fields})


def test_assembled_system_rejects_cell_centers_of_the_wrong_length():
    system = assemble(HeatProblem(number_of_cells=3))
    with pytest.raises(ValueError, match="cell_centers length 2 must equal 3"):
        AssembledSystem(crs=system.crs, rhs=system.rhs, cell_centers=Vector([0.25, 0.75]))


def test_vector_orientation_must_be_an_orientation():
    with pytest.raises(TypeError, match="orientation must be an Orientation, got str"):
        Vector([1.0], "row")


def test_test_record_name_must_be_a_string():
    with pytest.raises(TypeError, match="name must be a string, got int"):
        TestRecord(Layer.UNIT, 7, 1.0, TestStatus.OK)


def test_manifest_text_must_be_a_string():
    with pytest.raises(TypeError, match="manifest text must be a string, got bytes"):
        parse_manifest(b"layer,name,duration_ms,status\n")


def test_pyramid_report_takes_only_test_records():
    with pytest.raises(TypeError, match="records must be TestRecord values, got object"):
        pyramid_report([object()])
