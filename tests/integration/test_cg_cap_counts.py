"""A solve stopped by its iteration cap runs k + 1 products and 3k + 1 reductions."""

import pytest

from heatcg import linalg
from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import crs_matvec


@pytest.mark.parametrize("cap", [1, 5])
def test_the_cap_stops_the_steps_and_their_work(monkeypatch, cap):
    calls = {"reductions": 0, "products": 0}
    running_sum = linalg._running_sum

    def counted_sum(terms):
        calls["reductions"] += 1
        return running_sum(terms)

    monkeypatch.setattr(linalg, "_running_sum", counted_sum)
    system = assemble(HeatProblem(number_of_cells=12))

    def apply(v):
        calls["products"] += 1
        return crs_matvec(system.crs, v)

    result = cg_solve(apply, system.rhs, CgConfig(max_iterations=cap))
    assert not result.converged and result.iterations == cap
    assert calls == {"reductions": 1 + 3 * cap, "products": 1 + cap}
