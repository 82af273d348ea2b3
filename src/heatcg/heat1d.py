"""Finite volume discretization of the steady 1D heat equation.

The domain [0, L] is split into N equal cells with unknowns at the cell
centers x_i = i*dx + dx/2. Dirichlet values T_L and T_R are imposed
through boundary source terms: with a_w = a_e = gamma/dx, every row
carries the diagonal a_p = a_w + a_e, the boundary rows additionally
accumulate -s_p - a_w (left) and -s_p - a_e (right) with s_p = -2*gamma/dx,
and the right-hand side receives s_u*T_L and s_u*T_R with s_u = 2*gamma/dx.
Both boundary updates are additive, so the single row of an N=1 problem
receives both contributions.

The exact solution is the linear profile T(x) = T_L + (T_R - T_L)*x/L,
which the discretization represents exactly: the solve error is solver
error only, at any resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from ._checks import checked_count, checked_real
from .cgsolver import CgConfig, CgResult, cg_solve
from .linalg import CrsMatrix, DenseMatrix, Orientation, Vector, l2_norm, vec_sub
from .linalg import _finite

__all__ = [
    "HeatProblem",
    "StencilCoefficients",
    "AssembledSystem",
    "HeatSolution",
    "stencil_coefficients",
    "cell_centers",
    "assemble",
    "analytic_solution",
    "solve_heat",
]

Storage = Literal["dense", "crs"]


@dataclass(frozen=True)
class HeatProblem:
    """Problem definition: diffusivity, domain, resolution, boundary values."""

    gamma: float = 1.0
    domain_length: float = 1.0
    number_of_cells: int = 100
    boundary_left: float = 0.0
    boundary_right: float = 1.0

    def __post_init__(self) -> None:
        checked_real(self.gamma, "gamma", "positive")
        checked_real(self.domain_length, "domain_length", "positive")
        checked_count(self.number_of_cells, "number_of_cells", 1)
        checked_real(self.boundary_left, "boundary_left")
        checked_real(self.boundary_right, "boundary_right")


@dataclass(frozen=True)
class StencilCoefficients:
    """Derived per-cell coefficients; the identities are validated."""

    dx: float
    a_w: float
    a_e: float
    a_p: float
    s_p: float
    s_u: float

    def __post_init__(self) -> None:
        checked_real(self.dx, "dx", "positive")
        if not (self.a_w == self.a_e):
            raise ValueError(f"a_w must equal a_e, got {self.a_w!r} and {self.a_e!r}")
        if self.a_p != self.a_w + self.a_e:
            raise ValueError(
                f"a_p must equal a_w + a_e, got {self.a_p!r} vs {self.a_w + self.a_e!r}"
            )
        if self.s_u != -self.s_p:
            raise ValueError(f"s_u must equal -s_p, got {self.s_u!r} and {self.s_p!r}")


@dataclass(frozen=True)
class AssembledSystem:
    """The N x N system A T = b plus the cell center coordinates.

    A is stored in compressed-row form (crs). Construction verifies the
    structural invariants in O(nnz): the matrix is square, symmetric, and
    tridiagonal; rhs and cell_centers have length N. matrix is a dense view
    of the same A, derived from crs on first access and then kept; it holds
    N*N entries, so the sparse solve never asks for it.
    """

    crs: CrsMatrix
    rhs: Vector
    cell_centers: Vector

    def __post_init__(self) -> None:
        m = self.crs
        if m.rows != m.cols:
            raise ValueError(f"matrix must be square, got {m.rows}x{m.cols}")
        n = m.rows
        if len(self.rhs) != n:
            raise ValueError(f"rhs length {len(self.rhs)} must equal {n}")
        if len(self.cell_centers) != n:
            raise ValueError(
                f"cell_centers length {len(self.cell_centers)} must equal {n}"
            )
        # upper[i] is entry (i, i+1) and lower[i] entry (i+1, i); absent is 0.0
        upper = [0.0] * n
        lower = [0.0] * n
        values, col_indices, row_ptr = m.values, m.col_indices, m.row_ptr
        for i in range(n):
            for k in range(row_ptr[i], row_ptr[i + 1]):
                j = col_indices[k]
                if j == i + 1:
                    upper[i] = values[k]
                elif j == i - 1:
                    lower[j] = values[k]
                elif j != i:
                    raise ValueError(
                        f"matrix must be tridiagonal: nonzero {values[k]!r} at ({i},{j})"
                    )
        for i in range(n - 1):
            if upper[i] != lower[i]:
                raise ValueError(
                    f"matrix must be symmetric: ({i},{i + 1}) == {upper[i]!r} "
                    f"but ({i + 1},{i}) == {lower[i]!r}"
                )

    @cached_property
    def matrix(self) -> DenseMatrix:
        return self.crs.to_dense()


@dataclass(frozen=True)
class HeatSolution:
    """Solve outcome: temperatures, solver diagnostics, error vs analytic."""

    temperature: Vector
    cg: CgResult
    l2_error_vs_analytic: float


def stencil_coefficients(p: HeatProblem) -> StencilCoefficients:
    """Evaluate dx = L/N and the five coefficient formulas."""
    dx = p.domain_length / p.number_of_cells
    a_w = p.gamma / dx
    a_e = p.gamma / dx
    a_p = a_w + a_e
    s_p = -2.0 * p.gamma / dx
    s_u = 2.0 * p.gamma / dx
    return StencilCoefficients(dx=dx, a_w=a_w, a_e=a_e, a_p=a_p, s_p=s_p, s_u=s_u)


def cell_centers(p: HeatProblem) -> Vector:
    """x_i = i*dx + dx/2 for i in [0, N)."""
    dx = p.domain_length / p.number_of_cells
    centers = [i * dx + dx / 2.0 for i in range(p.number_of_cells)]
    # every x_i lies in [0, L], so none can overflow
    return Vector._trusted(np.array(centers), Orientation.COLUMN)


def assemble(p: HeatProblem) -> AssembledSystem:
    """Build the 3N-2 tridiagonal entries in CRS form, dropping exact zeros.

    Boundary rows accumulate additively: an N=1 row is a_p + (-s_p - a_w) + (-s_p - a_e).
    """
    c = stencil_coefficients(p)
    n = p.number_of_cells
    west, east = -c.a_w, -c.a_e
    diagonal = [c.a_p] * n
    diagonal[0] += -c.s_p - c.a_w
    diagonal[n - 1] += -c.s_p - c.a_e
    values: list[float] = []
    col_indices: list[int] = []
    row_ptr = [0]
    for i in range(n):
        for j, x in ((i - 1, west), (i, diagonal[i]), (i + 1, east)):
            if 0 <= j < n and x != 0.0:
                values.append(x)
                col_indices.append(j)
        row_ptr.append(len(values))
    rhs = [0.0] * n
    rhs[0] += c.s_u * p.boundary_left
    rhs[n - 1] += c.s_u * p.boundary_right
    _finite(np.array(values + rhs), "assemble")
    return AssembledSystem(
        crs=CrsMatrix._trusted(n, n, values, col_indices, row_ptr),
        rhs=Vector._trusted(np.array(rhs), Orientation.COLUMN),
        cell_centers=cell_centers(p),
    )


def analytic_solution(p: HeatProblem) -> Vector:
    """Linear profile T(x) = T_L + (T_R - T_L)*x/L at the cell centers."""
    t_l = p.boundary_left
    span = p.boundary_right - p.boundary_left
    length = p.domain_length
    profile = np.array([t_l + span * x / length for x in cell_centers(p)])
    return Vector._trusted(_finite(profile, "analytic_solution"), Orientation.COLUMN)


def solve_heat(p: HeatProblem, cfg: CgConfig, storage: Storage = "dense") -> HeatSolution:
    """Assemble, solve with conjugate gradients, and compare to analytic.

    storage selects the operator representation handed to the solver;
    both choices produce bitwise identical temperatures.
    """
    if storage not in ("dense", "crs"):
        raise ValueError(f"storage must be 'dense' or 'crs', got {storage!r}")
    system = assemble(p)
    operator = system.matrix if storage == "dense" else system.crs
    result = cg_solve(operator, system.rhs, cfg)
    error = l2_norm(vec_sub(result.solution, analytic_solution(p)))
    return HeatSolution(
        temperature=result.solution, cg=result, l2_error_vs_analytic=error
    )
