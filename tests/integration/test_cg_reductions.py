"""A CG step runs three reductions and one product; the state carries rT r."""

import math

from heatcg import linalg
from heatcg.cgsolver import CgConfig, CgState, cg_init, cg_solve, cg_step
from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import Vector, crs_matvec, dot, l2_norm
from testutil import assert_same_bits


def counting(monkeypatch, cells):
    """A counted heat operator and a counter of every linalg reduction."""
    calls = {"reductions": 0, "products": 0}
    running_sum = linalg._running_sum

    def counted_sum(terms):
        calls["reductions"] += 1
        return running_sum(terms)

    monkeypatch.setattr(linalg, "_running_sum", counted_sum)
    system = assemble(HeatProblem(number_of_cells=cells))

    def apply(v):
        calls["products"] += 1
        return crs_matvec(system.crs, v)

    return system, apply, calls


def test_a_step_runs_three_reductions_and_one_product(monkeypatch):
    system, apply, calls = counting(monkeypatch, 12)
    state = cg_init(apply, system.rhs, Vector([0.0] * 12))
    assert calls == {"reductions": 1, "products": 1}
    for _ in range(5):
        calls.update(reductions=0, products=0)
        state = cg_step(state, apply)
        assert calls == {"reductions": 3, "products": 1}


def test_a_solve_reuses_the_carried_residual(monkeypatch):
    system, apply, calls = counting(monkeypatch, 12)
    result = cg_solve(apply, system.rhs, CgConfig())
    assert result.converged and result.iterations == 12
    assert calls == {"reductions": 1 + 3 * 12, "products": 1 + 12}


def test_carried_product_is_bitwise_the_recomputed_one():
    system = assemble(HeatProblem(number_of_cells=9, boundary_left=3.0))
    state = cg_init(system.crs, system.rhs, Vector([0.0] * 9))
    for _ in range(9):
        assert_same_bits(state.r_dot_r, dot(state.r.transpose(), state.r), "rT r")
        assert_same_bits(math.sqrt(state.r_dot_r), l2_norm(state.r), "residual norm")
        state = cg_step(state, system.crs)


def test_six_keyword_state_computes_the_product():
    r = Vector([3.0, -4.0])
    state = CgState(phi=r, r=r, d=r, alpha=0.0, beta=0.0, n=0)
    assert_same_bits(state.r_dot_r, 25.0)
    assert cg_step(state, lambda v: v).n == 1
