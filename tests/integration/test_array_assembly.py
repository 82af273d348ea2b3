"""Array-built assembly, centres and profile against per-element Python references."""

import math
import random

import pytest
from test_sparse_assembly import _bits, _reference_dense

from heatcg.heat1d import HeatProblem, analytic_solution, assemble, cell_centers


def _reference_crs(entries: list[float], n: int):
    """The band entries of a dense list that are not exactly zero, row by row."""
    values, col_indices, row_ptr = [], [], [0]
    for i in range(n):
        for j in range(max(i - 1, 0), min(i + 2, n)):
            if entries[i * n + j] != 0.0:
                values.append(entries[i * n + j])
                col_indices.append(j)
        row_ptr.append(len(values))
    return values, col_indices, row_ptr


def _reference_centers(p: HeatProblem) -> list[float]:
    dx = p.domain_length / p.number_of_cells
    return [i * dx + dx / 2.0 for i in range(p.number_of_cells)]


def _reference_profile(p: HeatProblem) -> list[float]:
    span = p.boundary_right - p.boundary_left
    return [p.boundary_left + span * x / p.domain_length for x in _reference_centers(p)]


def test_direct_assembly_at_a_thousand_cells_matches_a_list_built_reference_bitwise():
    p = HeatProblem(
        gamma=0.37, domain_length=2.9, number_of_cells=1000,
        boundary_left=-12.5, boundary_right=301.0,
    )
    system = assemble(p)
    entries, rhs = _reference_dense(p)
    values, col_indices, row_ptr = _reference_crs(entries, 1000)
    assert _bits(system.crs.values) == _bits(values)
    assert system.crs.col_indices == tuple(col_indices)
    assert system.crs.row_ptr == tuple(row_ptr)
    assert system.crs.nnz() == 3 * 1000 - 2
    assert _bits(system.matrix.entries) == _bits(entries)
    assert _bits(system.rhs.components) == _bits(rhs)
    assert _bits(system.cell_centers.components) == _bits(_reference_centers(p))


def _seeded_problems(count: int):
    rng = random.Random(5)
    for _ in range(count):
        yield HeatProblem(
            gamma=10 ** rng.uniform(-150, 150),
            domain_length=10 ** rng.uniform(-150, 150),
            number_of_cells=rng.randint(1, 300),
            boundary_left=rng.choice([0.0, -0.0, rng.uniform(-1e9, 1e9)]),
            boundary_right=rng.choice([0.0, -0.0, 10 ** rng.uniform(-300, 300)]),
        )


def test_centres_and_profile_match_per_element_loops_bitwise():
    for p in _seeded_problems(60):
        assert _bits(cell_centers(p).components) == _bits(_reference_centers(p)), p
        profile = _reference_profile(p)
        if all(map(math.isfinite, profile)):
            assert _bits(analytic_solution(p).components) == _bits(profile), p
        else:
            with pytest.raises(ValueError, match="analytic_solution: the result overflowed"):
                analytic_solution(p)


def test_wide_range_assembly_matches_the_reference_and_keeps_both_one_cell_terms():
    for p in _seeded_problems(60):
        entries, rhs = _reference_dense(p)
        values, col_indices, row_ptr = _reference_crs(entries, p.number_of_cells)
        if not all(map(math.isfinite, values + rhs)):
            with pytest.raises(ValueError, match="assemble: the result overflowed"):
                assemble(p)
            continue
        system = assemble(p)
        assert _bits(system.crs.values) == _bits(values), p
        assert system.crs.col_indices == tuple(col_indices), p
        assert system.crs.row_ptr == tuple(row_ptr), p
        assert _bits(system.rhs.components) == _bits(rhs), p
    one = HeatProblem(gamma=1.0, domain_length=1.0, number_of_cells=1,
                      boundary_left=3.0, boundary_right=5.0)
    assert assemble(one).crs.values == (4.0,)  # a_p + (-s_p - a_w) + (-s_p - a_e)
    assert assemble(one).rhs.components == (16.0,)  # 2*3 + 2*5


def test_underflowing_couplings_are_dropped_like_any_exact_zero():
    # a_w = gamma/dx underflows to 0.0, so -a_w is -0.0 and must not be stored
    system = assemble(HeatProblem(gamma=1e-300, domain_length=1e300, number_of_cells=4))
    assert system.crs.nnz() == 0
    assert system.crs.row_ptr == (0, 0, 0, 0, 0)
