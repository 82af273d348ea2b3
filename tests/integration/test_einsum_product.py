"""The dense product's two forms, einsum and the multiply-then-reduce pair, have the same bits.

linalg multiplies a dense matrix with one np.einsum("ji,j->i") pass over
the grid's C-contiguous transpose when a once-per-process probe finds
that einsum rounds each product and adds the columns in order, as the
ufunc pair does; otherwise it keeps the pair and its terms buffer. Each
path is forced here in turn and must equal a pure-Python loop and
crs_matvec bit for bit, on signed zeros and magnitudes from 1e-300 to
1e300. Fake einsums that fuse the multiply-add, sum pairwise, start from
the first term or raise must each make the probe refuse einsum, and a
dense solve must still match a CRS solve bit for bit with them in place.
"""

import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from heatcg import linalg
from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import HeatProblem, assemble, solve_heat
from heatcg.linalg import DenseMatrix, Vector, crs_matvec, dense_to_crs, matvec
from testutil import assert_components_bitwise

REAL_EINSUM = np.einsum


@pytest.fixture(autouse=True)
def fresh_probe():
    """Every test starts and ends with the probe not yet run."""
    linalg._einsum_folds.cache_clear()
    yield
    linalg._einsum_folds.cache_clear()


@pytest.fixture(params=["einsum", "pair"])
def path(request, monkeypatch):
    """The forced path, and a list of the products' calls to np.einsum."""
    if request.param == "pair":
        monkeypatch.setattr(linalg, "_einsum_folds", lambda: False)
    elif not linalg._einsum_folds():  # run now, so that calls counts products only
        pytest.skip("this numpy's einsum fails the probe: only the pair runs")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return REAL_EINSUM(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return request.param, calls


def loop_product(grid: list[list[float]], xs: list[float]) -> list[float]:
    out = []
    for row in grid:
        acc = 0.0
        for a, x in zip(row, xs):
            acc += a * x
        out.append(acc)
    return out


def draw(rng: random.Random, low: int, high: int) -> float:
    kind = rng.random()
    if kind < 0.15:
        return rng.choice((0.0, -0.0))
    return rng.choice((1.0, -1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(low, high)


def test_the_installed_numpy_passes_the_probe():
    assert linalg._einsum_folds() is True


@pytest.mark.parametrize("rows", [0, 1, 2, 67, 203])
def test_each_path_matches_the_loop_and_the_sparse_product(path, rows):
    name, calls = path
    rng = random.Random(13000 + rows)
    for cols in sorted({rows, 1, 9, 130}):
        grid = [[draw(rng, -300, 299) for _ in range(cols)] for _ in range(rows)]
        xs = [draw(rng, -5, 0) for _ in range(cols)]
        m, x = DenseMatrix.from_rows(grid) if rows else DenseMatrix(0, cols, []), Vector(xs)
        want = loop_product(grid, xs)
        label = f"{name} {rows} x {cols}"
        assert_components_bitwise(matvec(m, x).components, want, label)
        assert_components_bitwise(crs_matvec(dense_to_crs(m), x).components, want, label)
        row_major = DenseMatrix._trusted(rows, cols, np.ascontiguousarray(m._grid))
        assert_components_bitwise(matvec(row_major, x).components, want, f"row-major {label}")
    assert bool(calls) == (name == "einsum" and rows >= 2)


@pytest.mark.parametrize("cells", [2, 67, 203])
def test_each_path_solves_like_crs(path, cells):
    problem = HeatProblem(number_of_cells=cells, boundary_left=-3.0, boundary_right=7.0)
    dense = solve_heat(problem, CgConfig(), storage="dense")
    crs = solve_heat(problem, CgConfig(), storage="crs")
    assert_components_bitwise(dense.temperature.components, crs.temperature.components, f"{path[0]} N = {cells}")
    # from N = 95 the heat matrix's dense view runs its sparse passes; the heat
    # matrix plus a positive fill is SPD and built from rows, so it keeps the grid
    system = assemble(problem)
    fill = 1e-3 * system.matrix.at(0, 0)
    full = DenseMatrix.from_rows([[a + fill for a in row] for row in system.matrix.to_rows()])
    path[1].clear()
    dense = cg_solve(full, system.rhs, CgConfig())
    assert bool(path[1]) == (path[0] == "einsum")
    crs = cg_solve(dense_to_crs(full), system.rhs, CgConfig())
    assert_components_bitwise(dense.solution.components, crs.solution.components, f"{path[0]} full N = {cells}")


def test_a_row_major_grid_never_runs_einsum(path):
    system = assemble(HeatProblem(number_of_cells=40))
    grid = system.matrix._grid
    row_major = DenseMatrix._trusted(40, 40, np.ascontiguousarray(grid))
    want = cg_solve(system.crs, system.rhs, CgConfig()).solution.components
    got = cg_solve(row_major, system.rhs, CgConfig()).solution.components
    assert_components_bitwise(got, want, path[0])
    assert path[1] == []


def fused_einsum(subscripts, grid_t, x, out, optimize):
    """Each lane as fma(grid, x, acc): the exact product and sum, rounded once."""
    for i in range(grid_t.shape[1]):
        acc = 0.0
        for j in range(grid_t.shape[0]):
            acc = float(Fraction(grid_t[j, i]) * Fraction(x[j]) + Fraction(acc))
        out[i] = acc
    return out


def pairwise_einsum(subscripts, grid_t, x, out, optimize):
    """Each lane's rounded products summed by halves, as numpy sums a contiguous run."""
    def halves(terms):
        if len(terms) == 1:
            return terms[0]
        return halves(terms[: len(terms) // 2]) + halves(terms[len(terms) // 2:])

    out[...] = halves(grid_t * x[:, None]) + 0.0
    return out


def first_term_einsum(subscripts, grid_t, x, out, optimize):
    """Each lane's rounded products in column order, from the first term, not +0.0."""
    terms = grid_t * x[:, None]
    out[...] = terms[0]
    for row in terms[1:]:
        out += row
    return out


def raising_einsum(*args, **kwargs):
    raise TypeError("einsum() got an unexpected keyword argument 'out'")


@pytest.mark.parametrize(
    "fake", [fused_einsum, pairwise_einsum, first_term_einsum, raising_einsum]
)
def test_an_einsum_with_other_bits_fails_the_probe_and_the_pair_runs(fake, monkeypatch):
    monkeypatch.setattr(np, "einsum", fake)
    assert linalg._einsum_folds() is False
    problem = HeatProblem(number_of_cells=67, boundary_left=2.0, boundary_right=-5.0)
    dense = solve_heat(problem, CgConfig(), storage="dense")
    crs = solve_heat(problem, CgConfig(), storage="crs")
    assert_components_bitwise(dense.temperature.components, crs.temperature.components, fake.__name__)


def test_the_fakes_differ_from_the_pair_on_the_probe_grid():
    """So each fake fails the probe by its bits, not by an accident of its form."""
    grid, x = linalg._einsum_probe()
    assert grid.flags.c_contiguous and grid.shape[0] >= 9 and grid.shape[1] >= 67
    pair = (np.add.reduce(grid * x[:, None], axis=0) + 0.0).view(np.int64)
    for fake in (fused_einsum, pairwise_einsum, first_term_einsum):
        lanes = fake("ji,j->i", grid, x, out=np.empty(grid.shape[1]), optimize=False)
        assert (lanes.view(np.int64) != pair).any(), fake.__name__


def probe_runs(code: str) -> int:
    """How often a fresh interpreter ran the probe after code."""
    script = f"{code}\nfrom heatcg import linalg\nprint(linalg._einsum_folds.cache_info().misses)"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.parametrize(
    "code, runs",
    [
        ("import heatcg.linalg", 0),
        ("from heatcg import CgConfig, HeatProblem, solve_heat\n"
         "solve_heat(HeatProblem(number_of_cells=5), CgConfig(), storage='crs')", 0),
        ("from heatcg import CgConfig, HeatProblem, solve_heat\n"
         "for _ in range(2): solve_heat(HeatProblem(number_of_cells=5), CgConfig())", 1),
    ],
)
def test_the_probe_runs_once_on_the_first_dense_product_never_at_import(code, runs):
    assert probe_runs(code) == runs
