"""Direct CRS assembly: bit-exact against a dense reference, O(nnz) checks, O(N) memory."""

import struct
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatcg.cgsolver import CgConfig
from heatcg.heat1d import AssembledSystem, HeatProblem, assemble, solve_heat, stencil_coefficients
from heatcg.linalg import CrsMatrix, DenseMatrix, Vector, dense_to_crs
from testutil import assert_components_bitwise


def _reference_dense(p: HeatProblem) -> tuple[list[float], list[float]]:
    """The N x N entries and rhs, built in the order the dense assembly used."""
    c = stencil_coefficients(p)
    n = p.number_of_cells
    entries = [0.0] * (n * n)
    for i in range(n):
        entries[i * n + i] = c.a_p
    entries[0] += -c.s_p - c.a_w
    entries[(n - 1) * n + (n - 1)] += -c.s_p - c.a_e
    for i in range(n - 1):
        entries[i * n + (i + 1)] = -c.a_e
        entries[(i + 1) * n + i] = -c.a_w
    rhs = [0.0] * n
    rhs[0] += c.s_u * p.boundary_left
    rhs[n - 1] += c.s_u * p.boundary_right
    return entries, rhs


def _bits(values) -> bytes:
    values = tuple(values)
    return struct.pack(f"<{len(values)}d", *values)


@given(
    gamma=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    length=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    cells=st.integers(min_value=1, max_value=64),
    left=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    right=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_direct_crs_matches_dense_reference_bitwise(gamma, length, cells, left, right):
    p = HeatProblem(
        gamma=gamma, domain_length=length, number_of_cells=cells,
        boundary_left=left, boundary_right=right,
    )
    system = assemble(p)
    entries, rhs = _reference_dense(p)
    expected = dense_to_crs(DenseMatrix(cells, cells, entries))
    for got in (system.crs, dense_to_crs(system.matrix)):
        assert _bits(got.values) == _bits(expected.values)
        assert got.col_indices == expected.col_indices
        assert got.row_ptr == expected.row_ptr
    assert _bits(system.matrix.entries) == _bits(system.crs.to_dense().entries)
    assert _bits(system.matrix.entries) == _bits(entries)
    assert_components_bitwise(system.rhs.components, rhs, "rhs")


def test_dense_view_is_derived_once_and_kept():
    system = assemble(HeatProblem(number_of_cells=4))
    assert system.matrix is system.matrix


def _system(n, values, col_indices, row_ptr):
    return AssembledSystem(
        crs=CrsMatrix(n, n, values, col_indices, row_ptr),
        rhs=Vector([0.0] * n),
        cell_centers=Vector([0.0] * n),
    )


def test_invariant_check_accepts_a_symmetric_tridiagonal_matrix():
    _system(3, [2.0, -1.0, -1.0, 2.0, 5.0], [0, 1, 0, 1, 2], [0, 2, 4, 5])


def test_invariant_check_rejects_asymmetry():
    with pytest.raises(ValueError, match=r"symmetric: \(0,1\) == -1.0 but \(1,0\) == -2.0"):
        _system(2, [2.0, -1.0, -2.0, 2.0], [0, 1, 0, 1], [0, 2, 4])


def test_invariant_check_counts_a_missing_mirror_entry_as_zero():
    with pytest.raises(ValueError, match="symmetric"):
        _system(2, [2.0, -1.0, 2.0], [0, 1, 1], [0, 2, 3])


def test_invariant_check_rejects_entries_off_the_band():
    with pytest.raises(ValueError, match=r"tridiagonal: nonzero 7.0 at \(2,0\)"):
        _system(3, [1.0, 1.0, 7.0, 1.0], [0, 1, 0, 2], [0, 1, 2, 4])


def test_invariant_check_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        AssembledSystem(
            crs=CrsMatrix(1, 2, [1.0], [0], [0, 1]),
            rhs=Vector([0.0]),
            cell_centers=Vector([0.0]),
        )


def test_invariant_check_rejects_a_short_rhs():
    with pytest.raises(ValueError, match="rhs length"):
        AssembledSystem(
            crs=CrsMatrix(2, 2, [1.0, 1.0], [0, 1], [0, 1, 2]),
            rhs=Vector([0.0]),
            cell_centers=Vector([0.0, 0.0]),
        )


def test_sparse_solve_never_builds_a_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sparse path built a DenseMatrix")

    monkeypatch.setattr(DenseMatrix, "__init__", refuse)
    monkeypatch.setattr(DenseMatrix, "_trusted", refuse)
    solution = solve_heat(HeatProblem(number_of_cells=100), CgConfig(), storage="crs")
    assert solution.cg.converged
    with pytest.raises(AssertionError, match="DenseMatrix"):
        assemble(HeatProblem(number_of_cells=3)).matrix  # the trap does fire


def test_assembly_memory_is_linear_in_cells():
    tracemalloc.start()
    try:
        system = assemble(HeatProblem(number_of_cells=100_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.crs.nnz() == 3 * 100_000 - 2
    # an N x N entry list alone would need about 80 GB here
    assert peak < 64 * 2**20, f"assemble peaked at {peak / 2**20:.1f} MB"
