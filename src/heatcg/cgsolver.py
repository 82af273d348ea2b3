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

One loop, _run, runs these recurrences (Hestenes and Stiefel, 1952) in
place on one workspace per solve (per call for cg_init and cg_step) in
the expression order of phi + alpha d, r - alpha A d and r + beta d, so
the bits are those of fresh arrays. It steps while the residual norm is
above the tolerance and the count below the cap, and returns rT r, the
count and a breakdown's message, if any. cg_solve runs it once; cg_step
runs it with a cap one above the state's count and an infinite starting
norm, so it takes its step whatever rT r the state carries, and raises
CgBreakdownError on a breakdown. numpy converts a Python float operand
on every call, so alpha and beta live in the workspace as 0-d arrays,
made once per workspace, which cg_step reads back as floats; the loop's
names are bound once. A breakdown stops the loop before phi, r or d
change, and a residual that already vanished before the product. No
input changes, and each returned Vector owns N floats.

Overflow raises ValueError. rT r is checked after initialization and
after every step, which covers r; d and phi are checked once, on return.
Nothing escapes: a non-finite d reaches r within one step, through 0 * inf
or inf - inf, and a non-finite phi stays non-finite.

The operator is an N x N DenseMatrix or CrsMatrix, N = len(b), or a
callable from a column Vector to a column Vector of the same length. Each
result of a callable is checked; TypeError or ValueError names it, and its
components are copied into A d. A callable receives a Vector over its own
copy of d, never over the workspace: Vectors are immutable, and a callable
may keep what it is given (or return it), so d changing in place must not
show through. Dense and compressed-row operators for the same matrix
yield bitwise identical iterates (see linalg).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

import numpy as np

from . import linalg
from ._checks import checked_count, checked_instance, checked_real, frozen
from .linalg import CrsMatrix, DenseMatrix, Orientation, Vector, dot
from .linalg import _crs_kernel, _dense_kernel, _finite, _require_column, _require_same_length

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
_Product = Callable[[], np.ndarray]

# Not linalg's errstate object: a callable operator runs linalg's kernels
# inside a solve, and numpy 1.x cannot nest one errstate object in itself.
_quiet = np.errstate(over="ignore", invalid="ignore")


class CgBreakdownError(ArithmeticError):
    """A denominator became exactly zero: dT A d, or the rT r of a residual that already vanished.

    For a symmetric positive definite operator dT A d vanishes only when
    d is zero, so with a nonzero residual a breakdown flags a degenerate
    or indefinite system. cg_step on a converged state names rT r instead.
    """


def _bind(operator: OperatorLike, n: int, x: np.ndarray, out: np.ndarray,
          scratch: np.ndarray) -> _Product:
    """The operator bound to arrays: each call writes A x into out; a matrix must be n x n."""
    if isinstance(operator, (DenseMatrix, CrsMatrix)):
        if (operator.rows, operator.cols) != (n, n):
            raise ValueError(
                f"operator must be {n}x{n} like b, got {operator.rows}x{operator.cols}"
            )
        if isinstance(operator, DenseMatrix):
            return _dense_kernel(operator, x, out)
        return _crs_kernel(operator, x, out, scratch)
    if not callable(operator):
        raise TypeError(
            f"operator must be a DenseMatrix, a CrsMatrix, or a callable, "
            f"got {type(operator).__name__}"
        )

    def apply() -> np.ndarray:
        # a copy: x changes in place, and a callable may keep the Vector it is given
        y = operator(Vector._trusted(x.copy(), Orientation.COLUMN))
        if not isinstance(y, Vector):
            raise TypeError(f"operator {operator!r} returned {type(y).__name__}, not a Vector")
        if y.orientation is not Orientation.COLUMN or len(y) != n:
            raise ValueError(
                f"operator {operator!r} returned a {y.orientation.value} Vector of "
                f"length {len(y)}, not a column of length {n}"
            )
        np.copyto(out, y._array)
        return out

    return apply


@frozen
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


@frozen
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


@frozen
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


class _Workspace:
    """Copies of phi, r and d; A d, scratch and the operator bound to them; 0-d alpha and beta."""

    __slots__ = ("phi", "r", "d", "ad", "scratch", "product", "alpha", "beta")

    def __init__(self, operator: OperatorLike, phi: np.ndarray, r: np.ndarray,
                 d: np.ndarray) -> None:
        self.phi, self.r, self.d = phi.copy(), r.copy(), d.copy()
        self.ad, self.scratch = np.empty(len(d)), np.empty(len(d))
        self.product = _bind(operator, len(d), self.d, self.ad, self.scratch)
        self.alpha, self.beta = np.zeros(()), np.zeros(())


def _start(operator: OperatorLike, b: Vector, x0: Optional[Vector], caller: str,
           guess: str) -> tuple[_Workspace, float]:
    """Check b once; a workspace holding phi = x0 (zeros if None), r = d = b - A x0, and rT r."""
    _require_column(b, "b")
    if x0 is None:
        x0 = Vector._trusted(np.zeros(len(b)), Orientation.COLUMN)
    _require_same_length(len(b), len(x0), caller, f"b and {guess}")
    ws = _Workspace(operator, x0._array, x0._array, x0._array)
    np.subtract(b._array, ws.product(), out=ws.r)
    np.subtract(b._array, ws.ad, out=ws.d)
    r_dot_r = linalg._running_sum(np.multiply(ws.r, ws.r, out=ws.scratch))
    if not math.isfinite(r_dot_r):
        raise ValueError(f"cg: rT r overflowed to {r_dot_r!r}")
    return ws, r_dot_r


def _run(ws: _Workspace, r_dot_r: float, residual_norm: float, n: int, tolerance: float,
         cap: int) -> tuple[float, int, Optional[str]]:
    """Step in place while residual_norm > tolerance and n < cap; rT r, n and any breakdown.

    A breakdown returns its message with phi, r and d unchanged: a vanished
    rT r before the product, a zero dT A d before the updates. The norm is
    taken only of an rT r that a step computed, which must be finite, and
    then so is r. Names, linalg._running_sum too, are read once per call.
    alpha and beta are written into the workspace's 0-d operands, which
    hold the last step's values.
    """
    phi, r, d, ad, scratch, product = ws.phi, ws.r, ws.d, ws.ad, ws.scratch, ws.product
    running_sum, multiply, add, subtract = linalg._running_sum, np.multiply, np.add, np.subtract
    alpha, beta, isfinite, sqrt = ws.alpha, ws.beta, math.isfinite, math.sqrt
    while residual_norm > tolerance and n < cap:
        if r_dot_r == 0.0:
            return r_dot_r, n, f"rT r is exactly zero at iteration {n}; residual already vanished"
        product()
        d_dot_r = running_sum(multiply(d, r, scratch))
        d_dot_ad = running_sum(multiply(d, ad, scratch))
        if d_dot_ad == 0.0:
            return r_dot_r, n, (f"dT A d is exactly zero at iteration {n}; "
                                f"operator is degenerate or not positive definite")
        alpha[()] = d_dot_r / d_dot_ad
        add(phi, multiply(alpha, d, scratch), phi)
        subtract(r, multiply(alpha, ad, scratch), r)
        r_dot_r_next = running_sum(multiply(r, r, scratch))
        if not isfinite(r_dot_r_next):
            raise ValueError(f"cg: rT r overflowed to {r_dot_r_next!r}")
        beta[()] = r_dot_r_next / r_dot_r
        add(r, multiply(beta, d, d), d)
        r_dot_r, n = r_dot_r_next, n + 1
        residual_norm = sqrt(r_dot_r)
    return r_dot_r, n, None


def _column(array: np.ndarray, op: str) -> Vector:
    return Vector._trusted(_finite(array, op), Orientation.COLUMN)


@_quiet
def cg_init(operator: OperatorLike, b: Vector, x0: Vector) -> CgState:
    """Initial state: phi = x0, r = d = b - A x0, counters at zero."""
    ws, r_dot_r = _start(operator, b, _require_column(x0, "x0"), "cg_init", "x0")
    r = Vector._trusted(ws.r, Orientation.COLUMN)
    return CgState(phi=x0, r=r, d=r, alpha=0.0, beta=0.0, n=0, r_dot_r=r_dot_r)


@_quiet
def cg_step(state: CgState, operator: OperatorLike) -> CgState:
    """Advance one iteration; A d is evaluated exactly once.

    Raises CgBreakdownError when rT r is exactly zero (checked first, so
    a converged state names its residual and spends no product) or dT A d
    is (no epsilon test: an SPD operator only produces zero for a zero
    vector).
    """
    ws = _Workspace(operator, state.phi._array, state.r._array, state.d._array)
    r_dot_r, n, breakdown = _run(ws, state.r_dot_r, math.inf, state.n, 0.0, state.n + 1)
    if breakdown is not None:
        raise CgBreakdownError(breakdown)
    return CgState(
        phi=_column(ws.phi, "cg_step"), r=Vector._trusted(ws.r, Orientation.COLUMN),
        d=_column(ws.d, "cg_step"), alpha=ws.alpha.item(), beta=ws.beta.item(),
        n=n, r_dot_r=r_dot_r,
    )


@_quiet
def cg_solve(operator: OperatorLike, b: Vector, config: CgConfig) -> CgResult:
    """Iterate until the residual norm is at or below the tolerance.

    Returns immediately with zero iterations when the initial residual is
    already small enough. A breakdown with the residual still above the
    tolerance is reported as non-convergence with the breakdown flag set.
    """
    checked_instance(config, CgConfig, "config")
    ws, r_dot_r = _start(operator, b, config.initial_guess, "cg_solve", "initial_guess")
    r_dot_r, n, breakdown = _run(ws, r_dot_r, math.sqrt(r_dot_r), 0, config.tolerance,
                                 config.max_iterations)
    residual_norm = math.sqrt(r_dot_r)
    _finite(ws.d, "cg_solve")
    return CgResult(
        solution=_column(ws.phi, "cg_solve"),
        iterations=n,
        residual_norm=residual_norm,
        converged=residual_norm <= config.tolerance,
        breakdown=breakdown is not None,
    )
