"""A/B timing of two heatcg trees in one process, with a bit check.

Each of A and B is a directory holding src/heatcg: the checkout, a copy
of another commit, or the same directory twice. Both packages load into
this process, as heatcg_a and heatcg_b. Run from anywhere:

    python tools/ab.py A B [--cells N ...] [--storage {dense,crs} ...]
                           [--rounds R] [--full]

For each N and storage, each round draws one heat problem (boundary
values from a stream seeded with 1, as the benchmark draws them) and
solves it with both sides, alternating which side goes first. A round's
time is the process time of solve_heat, assembly and product binding
included, divided by its CG iterations. With --full the matrix is instead the heat
matrix plus a positive fill of 1e-3 times its first entry, SPD with no
zero entry, made anew each round and solved by cg_solve (dense, or
dense_to_crs of it); only the solve is timed. The iteration cap is 4N.

One line per N and storage: each side's median microseconds per
iteration, B / A, and how many rounds each side was faster. Exit status
1 if any round's temperatures or iteration counts differ between the
sides, else 0.
"""

import argparse
import importlib
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np


def load(root: Path, name: str) -> SimpleNamespace:
    """root/src/heatcg imported as the package name, with the modules a solve uses."""
    package = root / "src" / "heatcg"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{part: importlib.import_module(f"{name}.{part}")
                              for part in ("cgsolver", "heat1d", "linalg")})


def full_matrix(side: SimpleNamespace, system):
    """The heat matrix plus a positive fill, made by the trusted constructor: its grid is finite."""
    grid = system.matrix._grid + 1e-3 * system.matrix.at(0, 0)
    return side.linalg.DenseMatrix._trusted(len(grid), len(grid), np.asfortranarray(grid))


def run(side: SimpleNamespace, cells: int, storage: str, full: bool, bounds: tuple):
    """Seconds per iteration of one solve, and its iterations and temperature bits."""
    problem = side.heat1d.HeatProblem(number_of_cells=cells, boundary_left=bounds[0],
                                      boundary_right=bounds[1])
    config = side.cgsolver.CgConfig(max_iterations=4 * cells)
    if full:
        system = side.heat1d.assemble(problem)
        matrix = full_matrix(side, system)
        operator = matrix if storage == "dense" else side.linalg.dense_to_crs(matrix)
        start = time.process_time()
        result = side.cgsolver.cg_solve(operator, system.rhs, config)
    else:
        start = time.process_time()
        result = side.heat1d.solve_heat(problem, config, storage=storage).cg
    seconds = time.process_time() - start
    bits = [t.hex() for t in result.solution.components]
    return seconds / max(result.iterations, 1), (result.iterations, bits)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--cells", type=int, nargs="+", default=[100, 400])
    parser.add_argument("--storage", choices=("dense", "crs"), nargs="+", default=["dense", "crs"])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)
    sides = (load(args.a.resolve(), "heatcg_a"), load(args.b.resolve(), "heatcg_b"))
    matrix = "full" if args.full else "heat"
    print(f"A = {args.a}, B = {args.b}, {args.rounds} rounds, process time")
    print(f"{'N':>6} {'storage':>7} {'matrix':>6} {'A us/it':>9} {'B us/it':>9} {'B/A':>6} "
          f"{'A wins':>6} {'B wins':>6}")
    differ = False
    for cells in args.cells:
        for storage in args.storage:
            rng = random.Random(1)
            times = ([], [])
            for k in range(args.rounds):
                bounds = (rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
                order = (0, 1) if k % 2 == 0 else (1, 0)
                outcome = [None, None]
                for s in order:
                    outcome[s] = run(sides[s], cells, storage, args.full, bounds)
                    times[s].append(outcome[s][0])
                if outcome[0][1] != outcome[1][1]:
                    print(f"bits differ: N = {cells} {storage} {matrix}, round {k}", file=sys.stderr)
                    differ = True
            a, b = (statistics.median(t) * 1e6 for t in times)
            wins = sum(x < y for x, y in zip(*times)), sum(y < x for x, y in zip(*times))
            print(f"{cells:>6} {storage:>7} {matrix:>6} {a:>9.2f} {b:>9.2f} {b / a:>6.2f} "
                  f"{wins[0]:>6} {wins[1]:>6}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
