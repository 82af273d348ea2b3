"""A solve's result keeps its N components and nothing of the solve's workspace.

cg_solve works on five arrays of N floats (phi, r, d, A d, scratch) and
binds the operator to views of them. Only phi may outlive the solve, as
the solution, so a cg_solve or solve_heat result retains about 8 bytes a
component: a workspace buffer, or a view that keeps a larger buffer alive,
would hold several times that. Callers that keep every result, such as a
batch of solves, depend on it.
"""

import gc
import tracemalloc

import pytest

from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import HeatProblem, assemble, solve_heat
from heatcg.linalg import crs_matvec

N = 400
PROBLEM = HeatProblem(number_of_cells=N)
# 20 steps run every line of the loop, and a dense solve stays short
CONFIG = CgConfig(max_iterations=20)
# the solution's N floats, and its result objects (a CgResult, a HeatSolution,
# a Vector): one more array of N floats, 3200 bytes, exceeds it
BOUND = 8 * N + 2048


def retained_by(make):
    """What make() returns, and the bytes still allocated while it is alive."""
    make()  # first calls may fill numpy's and the interpreter's caches
    gc.collect()
    tracemalloc.start()
    try:
        result = make()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained


@pytest.mark.parametrize("kind", ["dense", "crs", "callable"])
def test_a_cg_result_retains_about_eight_bytes_a_component(kind):
    system = assemble(PROBLEM)
    crs = system.crs
    operator = {"dense": system.matrix, "crs": crs,
                "callable": lambda v: crs_matvec(crs, v)}[kind]
    result, retained = retained_by(lambda: cg_solve(operator, system.rhs, CONFIG))
    assert result.iterations == 20 and len(result.solution) == N
    assert retained <= BOUND, f"{retained} bytes held by a {N}-cell {kind} result"


@pytest.mark.parametrize("storage", ["dense", "crs"])
def test_a_heat_solution_retains_about_eight_bytes_a_component(storage):
    solution, retained = retained_by(lambda: solve_heat(PROBLEM, CONFIG, storage=storage))
    assert solution.cg.iterations == 20 and len(solution.temperature) == N
    assert retained <= BOUND, f"{retained} bytes held by a {N}-cell {storage} solution"
