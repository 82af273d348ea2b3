"""CG against an independent fresh-list reference of the documented recurrences.

The reference below shares no code with heatcg's loop: it keeps phi, r and
d in new Python lists at every step, takes alpha and beta as Python floats
and sums every reduction as `acc = 0.0; for t in terms: acc += t`. A
product is a row's running sum of its entries in column order, which the
dense and compressed-row kernels reproduce bit for bit (see linalg). Each
step follows the documented order: alpha = (dT r)/(dT A d), phi + alpha d,
r - alpha A d, beta = (r'T r')/(rT r), r' + beta d. heatcg's states and
results must equal it bit for bit on dense, CRS and callable operators.
"""

import math
import random

import pytest

from heatcg.cgsolver import CgBreakdownError, CgConfig, cg_init, cg_solve, cg_step
from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import DenseMatrix, Vector, dense_to_crs
from testutil import assert_components_bitwise, assert_same_bits


def loop_sum(terms):
    acc = 0.0
    for t in terms:
        acc += t
    return acc


def product(rows, x):
    return [loop_sum(a * xj for a, xj in zip(row, x)) for row in rows]


def ref_init(rows, b, x0):
    r = [bi - ai for bi, ai in zip(b, product(rows, x0))]
    return {"phi": list(x0), "r": r, "d": list(r), "alpha": 0.0, "beta": 0.0,
            "r_dot_r": loop_sum(ri * ri for ri in r)}


def ref_step(rows, s):
    """The next state, or None where a denominator is exactly zero."""
    phi, r, d, r_dot_r = s["phi"], s["r"], s["d"], s["r_dot_r"]
    ad = product(rows, d)
    d_dot_r = loop_sum(di * ri for di, ri in zip(d, r))
    d_dot_ad = loop_sum(di * adi for di, adi in zip(d, ad))
    if d_dot_ad == 0.0 or r_dot_r == 0.0:
        return None
    alpha = d_dot_r / d_dot_ad
    phi = [pi + alpha * di for pi, di in zip(phi, d)]
    r = [ri - alpha * adi for ri, adi in zip(r, ad)]
    r_dot_r_next = loop_sum(ri * ri for ri in r)
    beta = r_dot_r_next / r_dot_r
    d = [ri + beta * di for ri, di in zip(r, d)]
    return {"phi": phi, "r": r, "d": d, "alpha": alpha, "beta": beta,
            "r_dot_r": r_dot_r_next}


def ref_solve(rows, b, tolerance, cap):
    s, n, breakdown = ref_init(rows, b, [0.0] * len(b)), 0, False
    residual_norm = math.sqrt(s["r_dot_r"])
    while residual_norm > tolerance and n < cap:
        following = ref_step(rows, s)
        if following is None:
            breakdown = True
            break
        s, n = following, n + 1
        residual_norm = math.sqrt(s["r_dot_r"])
    return s["phi"], n, residual_norm, breakdown


def spd_rows(n, rng, scale):
    """A seeded symmetric, strictly diagonally dominant matrix with a positive diagonal."""
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                rows[i][j] = rows[j][i] = rng.uniform(-1.0, 1.0) * scale
    for i in range(n):
        rows[i][i] = sum(abs(a) for a in rows[i]) + rng.uniform(0.5, 2.0) * scale
    return rows


def rhs(n, rng, magnitude):
    """Seeded components of about the given magnitude, every fifth one -0.0."""
    return [-0.0 if i % 5 == 2 else rng.uniform(-1.0, 1.0) * magnitude for i in range(n)]


def mixed_rhs(n, rng):
    """Components whose magnitudes run from 1e-150 to 1e150, one of them -0.0."""
    b = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0) for _ in range(n)]
    b[n // 2] = -0.0
    return b


def spd_cases():
    # (label, rows, b): matrix scales 1e-90 to 1e90 and right-hand sides of
    # 1e-150 to 1e150 push alpha and beta across wide exponents
    cases = []
    for seed, n, scale, magnitude in [
        (1, 1, 1.0, 1.0), (2, 2, 1.0, 1e150), (3, 3, 1.0, 1e-150), (4, 7, 3.7e-90, 1e-100),
        (5, 12, 2.3e90, 1e10), (6, 20, 1.0, 1.0), (7, 31, 1.0, 1e-150), (8, 40, 1.0, 1e150),
    ]:
        rng = random.Random(seed)
        cases.append((f"spd-n{n}-s{seed}", spd_rows(n, rng, scale), rhs(n, rng, magnitude)))
    for seed, n in [(9, 5), (10, 17), (11, 40)]:
        rng = random.Random(seed)
        cases.append((f"spd-mixed-n{n}-s{seed}", spd_rows(n, rng, 1.0), mixed_rhs(n, rng)))
    for cells in (1, 2, 3, 50):
        system = assemble(HeatProblem(number_of_cells=cells))
        cases.append((f"heat-{cells}", system.matrix.to_rows(), list(system.rhs.components)))
    return cases


CASES = spd_cases()


def operator(kind, rows):
    dense = DenseMatrix.from_rows(rows)
    if kind == "dense":
        return dense
    if kind == "crs":
        return dense_to_crs(dense)
    return lambda v: Vector(product(rows, v.components))


@pytest.mark.parametrize("start", ["zero", "half"])
@pytest.mark.parametrize("kind", ["dense", "crs", "callable"])
@pytest.mark.parametrize("label, rows, b", CASES, ids=[c[0] for c in CASES])
def test_states_are_bitwise_the_references(start, kind, label, rows, b):
    op, n = operator(kind, rows), len(b)
    x0 = [0.0] * n if start == "zero" else [0.5 * bi for bi in b]
    expected = ref_init(rows, b, x0)
    state = cg_init(op, Vector(b), Vector(x0))
    for step in range(n + 2):
        for name in ("phi", "r", "d"):
            assert_components_bitwise(getattr(state, name).components, expected[name],
                                      f"{label} step {step} {name}")
        for name in ("alpha", "beta", "r_dot_r"):
            assert_same_bits(getattr(state, name), expected[name], f"{label} step {step} {name}")
        expected = ref_step(rows, expected)
        if expected is None:
            with pytest.raises(CgBreakdownError):
                cg_step(state, op)
            return
        state = cg_step(state, op)


@pytest.mark.parametrize("kind", ["dense", "crs", "callable"])
@pytest.mark.parametrize("label, rows, b", CASES, ids=[c[0] for c in CASES])
def test_solves_are_bitwise_the_references(kind, label, rows, b):
    tolerance = 1e-12 * max(abs(x) for x in b) or 1e-10
    cap = 3 * len(b)
    phi, iterations, residual_norm, breakdown = ref_solve(rows, b, tolerance, cap)
    result = cg_solve(operator(kind, rows), Vector(b),
                      CgConfig(max_iterations=cap, tolerance=tolerance))
    assert_components_bitwise(result.solution.components, phi, f"{label} solution")
    assert (result.iterations, result.breakdown) == (iterations, breakdown), label
    assert_same_bits(result.residual_norm, residual_norm, f"{label} residual norm")
    assert result.converged is (residual_norm <= tolerance)
