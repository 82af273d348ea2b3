"""heatcg's own results skip the per-component checks of the public constructors."""

import pytest

from heatcg import linalg
from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import HeatProblem, analytic_solution, assemble
from heatcg.linalg import CrsMatrix, Vector, dense_to_crs, mat_scale


def test_internal_producers_never_run_the_public_component_check(monkeypatch):
    problem = HeatProblem(number_of_cells=50)
    reference = assemble(problem)
    expected_crs = dense_to_crs(reference.matrix)
    expected_profile = analytic_solution(problem)

    def refuse(*args, **kwargs):
        raise AssertionError("a computed value went through the public component check")

    monkeypatch.setattr(linalg, "_checked_components", refuse)
    system = assemble(problem)
    crs = dense_to_crs(system.matrix)
    profile = analytic_solution(problem)
    scaled = mat_scale(2.0, system.matrix)
    result = cg_solve(system.crs, system.rhs, CgConfig())
    assert system.crs == reference.crs and crs == expected_crs
    assert profile == expected_profile
    assert scaled.at(0, 0) == 2.0 * reference.matrix.at(0, 0)
    assert result.converged
    with pytest.raises(AssertionError, match="public component check"):
        Vector([1.0])  # the trap does fire
    with pytest.raises(AssertionError, match="public component check"):
        CrsMatrix(1, 1, [1.0], [0], [0, 1])
