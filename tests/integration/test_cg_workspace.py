"""CG updates its own workspace in place and nothing its caller can see.

cg_solve, cg_init and cg_step run on arrays they allocate themselves. A
right-hand side, an initial guess, an input CgState and every Vector a
callable operator was given or returned must keep their bits, and the
results must be the bits of a solve that allocates fresh arrays.
"""

import random

import pytest

from heatcg.cgsolver import CgConfig, CgState, cg_init, cg_solve, cg_step
from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import DenseMatrix, Vector, crs_matvec, dense_to_crs
from testutil import assert_components_bitwise, assert_same_bits, float_bits


def bits(v: Vector) -> bytes:
    """The stored components, read through indexing (not a cached tuple)."""
    return b"".join(float_bits(v[i]) for i in range(len(v)))


def operator_kinds(matrix: DenseMatrix):
    crs = dense_to_crs(matrix)
    return {"dense": matrix, "crs": crs, "callable": lambda v: crs_matvec(crs, v)}


HEAT = assemble(HeatProblem(gamma=0.7, domain_length=3.1, number_of_cells=9,
                            boundary_left=-2.5, boundary_right=7.25))
X0 = Vector([random.Random(9).uniform(-5.0, 5.0) for _ in range(9)])
KINDS = ["dense", "crs", "callable"]


@pytest.mark.parametrize("kind", KINDS)
def test_a_solve_leaves_b_and_the_initial_guess_unchanged(kind):
    operator = operator_kinds(HEAT.matrix)[kind]
    b, x0 = HEAT.rhs, X0
    before = bits(b), bits(x0)
    result = cg_solve(operator, b, CgConfig(initial_guess=x0))
    assert result.converged
    assert (bits(b), bits(x0)) == before
    cg_init(operator, b, x0)
    assert (bits(b), bits(x0)) == before


@pytest.mark.parametrize("kind", KINDS)
def test_a_step_leaves_its_state_unchanged_and_repeats_bit_for_bit(kind):
    operator = operator_kinds(HEAT.matrix)[kind]
    state = cg_init(operator, HEAT.rhs, X0)  # r and d are one Vector here
    for _ in range(4):
        before = bits(state.phi), bits(state.r), bits(state.d)
        first, second = cg_step(state, operator), cg_step(state, operator)
        assert (bits(state.phi), bits(state.r), bits(state.d)) == before
        for name in ("phi", "r", "d"):
            assert bits(getattr(first, name)) == bits(getattr(second, name)), name
        for name in ("alpha", "beta", "r_dot_r"):
            assert_same_bits(getattr(first, name), getattr(second, name), name)
        state = first


def keeping(apply):
    """apply, keeping every Vector it receives and returns with its bits at the time."""
    kept = []

    def operator(v):
        kept.append((v, bits(v)))
        y = apply(v)
        kept.append((y, bits(y)))
        return y

    return operator, kept


def test_every_vector_a_callable_kept_keeps_its_bits():
    crs = HEAT.crs
    operator, kept = keeping(lambda v: crs_matvec(crs, v))
    result = cg_solve(operator, HEAT.rhs, CgConfig(initial_guess=X0))
    state = cg_init(operator, HEAT.rhs, X0)
    for _ in range(3):
        state = cg_step(state, operator)
    assert len(kept) == 2 * ((1 + result.iterations) + (1 + 3))
    for i, (v, at_the_time) in enumerate(kept):
        assert bits(v) == at_the_time, f"kept Vector {i}"


def test_identity_callables_give_the_bits_of_the_identity_matrix():
    n = 6
    rng = random.Random(6)
    identity = DenseMatrix(n, n, [float(i == j) for i in range(n) for j in range(n)])
    b = Vector([rng.uniform(-10.0, 10.0) for _ in range(n)])
    config = CgConfig(initial_guess=Vector([rng.uniform(-1.0, 1.0) for _ in range(n)]))
    expected = cg_solve(identity, b, config)
    cache = {}

    def cached(v):  # returns one cached Vector for each input it has seen
        return cache.setdefault(v.components, Vector(v.components))

    returns_its_input, kept = keeping(lambda v: v)
    for operator in (returns_its_input, cached, cached):  # twice: the cache is hit
        got = cg_solve(operator, b, config)
        assert_components_bitwise(got.solution.components, expected.solution.components)
        assert got.iterations == expected.iterations
        assert_same_bits(got.residual_norm, expected.residual_norm, "residual_norm")
    for key, v in cache.items():
        assert_components_bitwise((v[i] for i in range(n)), key, "cached Vector")
    assert all(bits(v) == at_the_time for v, at_the_time in kept)


def test_a_hand_built_state_with_one_vector_for_phi_r_and_d_is_not_written():
    r = Vector([3.0, -4.0])
    state = CgState(phi=r, r=r, d=r, alpha=0.0, beta=0.0, n=0)
    cg_step(state, DenseMatrix.from_rows([[2.0, -1.0], [-1.0, 2.0]]))
    assert bits(r) == float_bits(3.0) + float_bits(-4.0)
