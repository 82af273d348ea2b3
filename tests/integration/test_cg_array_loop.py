"""cg_solve, cg_init and cg_step share one array loop: same bits, same overflow reports."""

import math
import random

import pytest

from heatcg import cgsolver
from heatcg.cgsolver import CgBreakdownError, CgConfig, CgState, cg_init, cg_solve, cg_step
from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import DenseMatrix, Vector, crs_matvec, dense_to_crs
from testutil import assert_components_bitwise, assert_same_bits


def operator_kinds(matrix: DenseMatrix):
    crs = dense_to_crs(matrix)
    return {
        "dense": matrix,
        "crs": crs,
        "callable": lambda v: crs_matvec(crs, v),
    }


def stepped(operator, b: Vector, config: CgConfig):
    """cg_solve's contract spelled out with the public per-step API."""
    x0 = config.initial_guess
    if x0 is None:
        x0 = Vector([0.0] * len(b))
    state = cg_init(operator, b, x0)
    breakdown = False
    while math.sqrt(state.r_dot_r) > config.tolerance and state.n < config.max_iterations:
        try:
            state = cg_step(state, operator)
        except CgBreakdownError:
            breakdown = True
            break
    return state, breakdown


def assert_solve_matches_steps(operator, b: Vector, config: CgConfig) -> None:
    result = cg_solve(operator, b, config)
    state, breakdown = stepped(operator, b, config)
    assert_components_bitwise(result.solution.components, state.phi.components, "phi")
    assert result.iterations == state.n
    assert_same_bits(result.residual_norm, math.sqrt(state.r_dot_r), "residual_norm")
    assert result.breakdown is breakdown
    assert result.converged is (result.residual_norm <= config.tolerance)


def seeded_spd(rng: random.Random, n: int) -> DenseMatrix:
    """Symmetric and strictly diagonally dominant with a positive diagonal, so SPD."""
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                rows[i][j] = rows[j][i] = rng.uniform(-1.0, 1.0)
    for i in range(n):
        rows[i][i] = sum(abs(x) for x in rows[i]) + rng.uniform(0.5, 2.0)
    return DenseMatrix.from_rows(rows)


def guesses(rng: random.Random, n: int):
    yield CgConfig()
    yield CgConfig(initial_guess=Vector([rng.uniform(-5.0, 5.0) for _ in range(n)]))
    yield CgConfig(max_iterations=max(1, n // 2), tolerance=1e-12)


@pytest.mark.parametrize("kind", ["dense", "crs", "callable"])
def test_solve_is_init_then_steps_on_seeded_spd_systems(kind):
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(1, 12)
        operator = operator_kinds(seeded_spd(rng, n))[kind]
        b = Vector([rng.uniform(-10.0, 10.0) for _ in range(n)])
        for config in guesses(rng, n):
            assert_solve_matches_steps(operator, b, config)


@pytest.mark.parametrize("kind", ["dense", "crs", "callable"])
@pytest.mark.parametrize("cells", [1, 7, 40])
def test_solve_is_init_then_steps_on_heat_systems(kind, cells):
    rng = random.Random(cells)
    system = assemble(HeatProblem(gamma=0.7, domain_length=3.1, number_of_cells=cells,
                                  boundary_left=-2.5, boundary_right=7.25))
    operator = operator_kinds(system.matrix)[kind]
    for config in guesses(rng, cells):
        assert_solve_matches_steps(operator, system.rhs, config)


@pytest.mark.parametrize("kind", ["dense", "crs", "callable"])
def test_breakdown_keeps_the_last_completed_state(kind):
    indefinite = DenseMatrix.from_rows([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
    b = Vector([1.0, 1.0, 0.0])
    operator = operator_kinds(indefinite)[kind]
    result = cg_solve(operator, b, CgConfig())
    assert result.breakdown is True and result.iterations == 0
    assert_solve_matches_steps(operator, b, CgConfig())


def test_a_solve_checks_two_arrays_whatever_its_iteration_count(monkeypatch):
    checked = []
    finite = cgsolver._finite
    monkeypatch.setattr(cgsolver, "_finite", lambda a, op: checked.append(op) or finite(a, op))
    counts = []
    for cells in (5, 60):
        system = assemble(HeatProblem(number_of_cells=cells))
        checked.clear()
        assert cg_solve(system.crs, system.rhs, CgConfig()).iterations == cells
        counts.append(len(checked))
    assert counts == [2, 2]  # d and phi, once each, after the loop


OVERFLOWS = {
    # rT r of the initial residual leaves binary64
    "residual": (DenseMatrix.from_rows([[2.0, -1.0], [-1.0, 2.0]]), Vector([1e200, 1e200])),
    # A d leaves binary64 in the first step
    "product": (DenseMatrix.from_rows([[1e300, 0.0], [0.0, 1.0]]), Vector([1e10, 1.0])),
    # the residual converges while the iterate, 1e310, leaves binary64
    "iterate": (DenseMatrix.from_rows([[1e-300, 0.0], [0.0, 1.0]]), Vector([1e10, 0.0])),
}


@pytest.mark.parametrize("kind", ["dense", "crs", "callable"])
@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_solve_reports_overflow_as_value_error(kind, case):
    matrix, b = OVERFLOWS[case]
    with pytest.raises(ValueError):
        cg_solve(operator_kinds(matrix)[kind], b, CgConfig())


TINY = DenseMatrix.from_rows([[1e-300, 0.0], [0.0, 1.0]])


def test_step_reports_an_overflowing_step_length():
    state = CgState(phi=Vector([0.0, 0.0]), r=Vector([1e10, 0.0]), d=Vector([1.0, 0.0]),
                    alpha=0.0, beta=0.0, n=0)
    with pytest.raises(ValueError):  # alpha = 1e10 / 1e-300
        cg_step(state, TINY)


def test_step_reports_an_iterate_that_alone_overflows():
    state = cg_init(TINY, Vector([1e10, 0.0]), Vector([0.0, 0.0]))
    # alpha = 1e300, so phi = 1e310 while the new r and d are exactly zero
    with pytest.raises(ValueError):
        cg_step(state, TINY)
