"""Conjugate gradient iteration for symmetric positive definite systems.

The update rules are the classical ones: starting from r0 = d0 = b - A x0,
each step computes alpha = (dT r)/(dT A d), advances the iterate, updates
the residual by the recurrence r' = r - alpha A d (never recomputed as
b - A x), forms beta = (r'T r')/(rT r) and the next direction d' = r' +
beta d. A d is computed exactly once per step, and a step runs three
reductions (dT r, dT A d, r'T r'): the state carries rT r, so neither
the next step nor the residual norm sqrt(rT r), which is bitwise
l2_norm(r), computes it again. Convergence means the absolute residual L2
norm is at or below the tolerance, checked after initialization and after
every step.

The operator may be a DenseMatrix, a CrsMatrix, or any callable mapping a
column Vector to a column Vector. Dense and compressed-row operators for
the same matrix yield bitwise identical iterates (see linalg).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ._checks import checked_count, checked_real
from .linalg import (
    CrsMatrix,
    DenseMatrix,
    Orientation,
    Vector,
    crs_matvec,
    dot,
    matvec,
    vec_add,
    vec_scale,
    vec_sub,
)

__all__ = [
    "CgBreakdownError",
    "CgConfig",
    "CgState",
    "CgResult",
    "cg_init",
    "cg_step",
    "cg_solve",
]

ApplyA = Callable[[Vector], Vector]
OperatorLike = Union[DenseMatrix, CrsMatrix, ApplyA]


class CgBreakdownError(ArithmeticError):
    """A denominator became exactly zero while the residual was nonzero.

    For a symmetric positive definite operator dT A d vanishes only when
    d is zero, so a breakdown flags a degenerate or indefinite system.
    """


def _as_operator(operator: OperatorLike) -> ApplyA:
    if isinstance(operator, DenseMatrix):
        return lambda v: matvec(operator, v)
    if isinstance(operator, CrsMatrix):
        return lambda v: crs_matvec(operator, v)
    if callable(operator):
        return operator
    raise TypeError(
        f"operator must be a DenseMatrix, a CrsMatrix, or a callable, "
        f"got {type(operator).__name__}"
    )


def _require_column(v: Vector, label: str) -> Vector:
    if not isinstance(v, Vector):
        raise TypeError(f"{label} must be a Vector, got {type(v).__name__}")
    if v.orientation is not Orientation.COLUMN:
        raise ValueError(f"{label} must be a column vector, got {v.orientation.value}")
    return v


@dataclass(frozen=True)
class CgConfig:
    """Solve parameters: iteration cap, absolute residual tolerance, start."""

    max_iterations: int = 1000
    tolerance: float = 1e-10
    initial_guess: Optional[Vector] = None

    def __post_init__(self) -> None:
        checked_count(self.max_iterations, "max_iterations", 1)
        checked_real(self.tolerance, "tolerance", "positive")
        if self.initial_guess is not None:
            _require_column(self.initial_guess, "initial_guess")


@dataclass(frozen=True)
class CgState:
    """One iteration's full state: iterate, residual, direction, scalars.

    r_dot_r is rT r. It is computed from r when omitted; a caller that
    passes it must pass that value bit for bit.
    """

    phi: Vector
    r: Vector
    d: Vector
    alpha: float
    beta: float
    n: int
    r_dot_r: Optional[float] = None

    def __post_init__(self) -> None:
        _require_column(self.phi, "phi")
        _require_column(self.r, "r")
        _require_column(self.d, "d")
        if not (len(self.phi) == len(self.r) == len(self.d)):
            raise ValueError(
                f"phi, r, d must have identical lengths, got "
                f"{len(self.phi)}, {len(self.r)}, {len(self.d)}"
            )
        checked_count(self.n, "n")
        if self.r_dot_r is None:
            object.__setattr__(self, "r_dot_r", dot(self.r.transpose(), self.r))


@dataclass(frozen=True)
class CgResult:
    """Solver outcome; converged implies residual_norm <= tolerance.

    breakdown marks runs aborted by a zero denominator while the residual
    was still above tolerance (degenerate or indefinite operator).
    """

    solution: Vector
    iterations: int
    residual_norm: float
    converged: bool
    breakdown: bool = False


def cg_init(operator: OperatorLike, b: Vector, x0: Vector) -> CgState:
    """Initial state: phi = x0, r = d = b - A x0, counters at zero."""
    apply_a = _as_operator(operator)
    _require_column(b, "b")
    _require_column(x0, "x0")
    if len(b) != len(x0):
        raise ValueError(
            f"cg_init: b and x0 lengths must match, got {len(b)} and {len(x0)}"
        )
    r = vec_sub(b, apply_a(x0))
    return CgState(phi=x0, r=r, d=r, alpha=0.0, beta=0.0, n=0)


def cg_step(state: CgState, operator: OperatorLike) -> CgState:
    """Advance one iteration; A d is evaluated exactly once.

    Raises CgBreakdownError when dT A d or rT r is exactly zero (no
    epsilon test: an SPD operator only produces zero for a zero vector).
    """
    apply_a = _as_operator(operator)
    ad = apply_a(state.d)
    d_row = state.d.transpose()
    d_dot_r = dot(d_row, state.r)
    d_dot_ad = dot(d_row, ad)
    if d_dot_ad == 0.0:
        raise CgBreakdownError(
            f"dT A d is exactly zero at iteration {state.n}; "
            f"operator is degenerate or not positive definite"
        )
    alpha = d_dot_r / d_dot_ad
    phi_next = vec_add(state.phi, vec_scale(alpha, state.d))
    if state.r_dot_r == 0.0:
        raise CgBreakdownError(
            f"rT r is exactly zero at iteration {state.n}; residual already vanished"
        )
    r_next = vec_sub(state.r, vec_scale(alpha, ad))
    r_dot_r_next = dot(r_next.transpose(), r_next)
    beta = r_dot_r_next / state.r_dot_r
    d_next = vec_add(r_next, vec_scale(beta, state.d))
    return CgState(
        phi=phi_next, r=r_next, d=d_next, alpha=alpha, beta=beta, n=state.n + 1,
        r_dot_r=r_dot_r_next,
    )


def cg_solve(operator: OperatorLike, b: Vector, config: CgConfig) -> CgResult:
    """Iterate until the residual norm is at or below the tolerance.

    Returns immediately with zero iterations when the initial residual is
    already small enough. A breakdown with the residual still above the
    tolerance is reported as non-convergence with the breakdown flag set.
    """
    apply_a = _as_operator(operator)
    if not isinstance(config, CgConfig):
        raise TypeError(f"config must be a CgConfig, got {type(config).__name__}")
    _require_column(b, "b")
    if config.initial_guess is not None:
        x0 = config.initial_guess
    else:
        x0 = Vector([0.0] * len(b))
    state = cg_init(apply_a, b, x0)
    residual_norm = math.sqrt(state.r_dot_r)
    breakdown = False
    while residual_norm > config.tolerance and state.n < config.max_iterations:
        try:
            state = cg_step(state, apply_a)
        except CgBreakdownError:
            breakdown = True
            break
        residual_norm = math.sqrt(state.r_dot_r)
    return CgResult(
        solution=state.phi,
        iterations=state.n,
        residual_norm=residual_norm,
        converged=residual_norm <= config.tolerance,
        breakdown=breakdown,
    )
