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

import sys
from functools import cached_property
from typing import Literal

import numpy as np

from ._checks import checked_count, checked_float, checked_instance, frozen
from .cgsolver import CgConfig, CgResult, cg_solve
from .linalg import CrsMatrix, DenseMatrix, Orientation, Vector, l2_norm, vec_sub
from .linalg import _finite, _quiet, _require_column, _require_symmetric_tridiagonal

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


@frozen
class HeatProblem:
    """Problem definition: diffusivity, domain, resolution, boundary values."""

    gamma: float = 1.0
    domain_length: float = 1.0
    number_of_cells: int = 100
    boundary_left: float = 0.0
    boundary_right: float = 1.0

    def __post_init__(self) -> None:
        # kept as floats: int arithmetic, such as the boundary span, raises OverflowError, not inf
        for name, sign in (("gamma", "positive"), ("domain_length", "positive"),
                           ("boundary_left", ""), ("boundary_right", "")):
            object.__setattr__(self, name, checked_float(getattr(self, name), name, sign))
        checked_count(self.number_of_cells, "number_of_cells", 1)


@frozen
class StencilCoefficients:
    """Derived per-cell coefficients; the identities are validated."""

    dx: float
    a_w: float
    a_e: float
    a_p: float
    s_p: float
    s_u: float

    def __post_init__(self) -> None:
        checked_float(self.dx, "dx", "positive")
        if not (self.a_w == self.a_e):
            raise ValueError(f"a_w must equal a_e, got {self.a_w!r} and {self.a_e!r}")
        if self.a_p != self.a_w + self.a_e:
            raise ValueError(
                f"a_p must equal a_w + a_e, got {self.a_p!r} vs {self.a_w + self.a_e!r}"
            )
        if self.s_u != -self.s_p:
            raise ValueError(f"s_u must equal -s_p, got {self.s_u!r} and {self.s_p!r}")


@frozen
class AssembledSystem:
    """The N x N system A T = b plus the cell center coordinates.

    A is stored in compressed-row form (crs). Construction verifies the
    field types and the structural invariants in O(nnz): crs is a
    CrsMatrix that is square, symmetric, and tridiagonal, which
    linalg._require_symmetric_tridiagonal checks first, and rhs and
    cell_centers are column Vectors of length N. assemble, which builds
    them so, skips those checks through _trusted. matrix is a dense view
    of the same A, derived from crs on first access and then kept. From
    N = 95 it multiplies by crs's passes and holds no grid until a grid
    reader builds one (linalg.DenseMatrix); below that it holds its N*N
    entries, so the sparse solve never asks for it.
    """

    crs: CrsMatrix
    rhs: Vector
    cell_centers: Vector

    def __post_init__(self) -> None:
        m = checked_instance(self.crs, CrsMatrix, "crs")
        _require_symmetric_tridiagonal(m)
        _require_column(self.rhs, "rhs", m.rows)
        _require_column(self.cell_centers, "cell_centers", m.rows)

    @classmethod
    def _trusted(cls, crs: CrsMatrix, rhs: Vector, cell_centers: Vector) -> AssembledSystem:
        """A system assemble built to the invariants, without re-checking them."""
        system = object.__new__(cls)
        system.__dict__.update(crs=crs, rhs=rhs, cell_centers=cell_centers)
        return system

    @cached_property
    def matrix(self) -> DenseMatrix:
        return self.crs.to_dense()


@frozen
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
    centers = np.arange(p.number_of_cells) * dx + dx / 2.0
    # every x_i lies in [0, L], so none can overflow
    return Vector._trusted(centers, Orientation.COLUMN)


@_quiet
def assemble(p: HeatProblem) -> AssembledSystem:
    """Build the 3N-2 tridiagonal entries in CRS form, dropping exact zeros.

    Boundary rows accumulate additively: an N=1 row is a_p + (-s_p - a_w) + (-s_p - a_e).
    """
    c = stencil_coefficients(p)
    n = p.number_of_cells
    diagonal = np.full(n, c.a_p)
    diagonal[0] += -c.s_p - c.a_w
    diagonal[n - 1] += -c.s_p - c.a_e
    # row i of the band holds columns i-1, i, i+1; the two slots outside the
    # matrix hold 0.0, which the compression drops with every other zero
    band = np.column_stack((np.full(n, -c.a_w), diagonal, np.full(n, -c.a_e)))
    band[0, 0] = band[n - 1, 2] = 0.0
    cols = np.arange(n, dtype=np.intp)[:, None] + np.arange(-1, 2)
    rhs = np.zeros(n)
    rhs[0] += c.s_u * p.boundary_left
    rhs[n - 1] += c.s_u * p.boundary_right
    return AssembledSystem._trusted(
        crs=CrsMatrix._compressed(_finite(band, "assemble"), cols, n),
        rhs=Vector._trusted(_finite(rhs, "assemble"), Orientation.COLUMN),
        cell_centers=cell_centers(p),
    )


@_quiet
def analytic_solution(p: HeatProblem) -> Vector:
    """Linear profile T(x) = T_L + (T_R - T_L)*x/L at the cell centers."""
    span = p.boundary_right - p.boundary_left
    profile = p.boundary_left + span * cell_centers(p)._array / p.domain_length
    return Vector._trusted(_finite(profile, "analytic_solution"), Orientation.COLUMN)


def solve_heat(p: HeatProblem, cfg: CgConfig, storage: Storage = "dense") -> HeatSolution:
    """Assemble, solve with conjugate gradients, and compare to analytic.

    storage selects the operator representation handed to the solver;
    both choices produce bitwise identical temperatures.
    """
    if storage not in ("dense", "crs"):
        raise ValueError(f"storage must be 'dense' or 'crs', got {storage!r}")
    coupling = stencil_coefficients(p).a_w
    if coupling < sys.float_info.min:
        # A would be (nearly) zero, and CG would return a wrong profile
        raise ValueError(f"gamma/dx == {coupling!r} underflows below the normal range")
    system = assemble(p)
    operator = system.matrix if storage == "dense" else system.crs
    result = cg_solve(operator, system.rhs, cfg)
    error = l2_norm(vec_sub(result.solution, analytic_solution(p)))
    return HeatSolution(
        temperature=result.solution, cg=result, l2_error_vs_analytic=error
    )
