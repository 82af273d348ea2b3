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
iteration, B / A, how many rounds each side was faster, each side's
peak bytes under tracemalloc in one extra, untimed round (the first
round's problem, the whole round traced, a --full matrix's making
included), and each side's numpy calls per CG iteration of one more
such round, as multiply/add/subtract/vdot: np.multiply, np.add,
np.subtract and the side's linalg._vdot, which every running sum calls
("-" for a tree without it). They are counted by wrapping those names
for that round only, so a name bound before it starts goes uncounted;
the calls of the whole round are divided by its iterations, so assembly
and the start of CG add a fraction. Exit status 1 if any round's
temperatures or iteration counts differ between the sides, else 0.
"""

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import sys
import time
import tracemalloc
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


def peak(side: SimpleNamespace, cells: int, storage: str, full: bool, bounds: tuple) -> int:
    """The peak bytes tracemalloc sees allocated during one run."""
    gc.collect()
    tracemalloc.start()
    try:
        run(side, cells, storage, full, bounds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Counted:
    """f, counting its calls into counts[name]; attribute reads such as np.add.reduce go to f."""

    def __init__(self, f, name: str, counts: dict) -> None:
        self._f, self._name, self._counts = f, name, counts

    def __call__(self, *args, **kwargs):
        self._counts[self._name] += 1
        return self._f(*args, **kwargs)

    def __getattr__(self, attr: str):
        return getattr(self._f, attr)


def count(side: SimpleNamespace, cells: int, storage: str, full: bool, bounds: tuple) -> str:
    """Calls per CG iteration of one run, as multiply/add/subtract/vdot; the names are restored."""
    counts = dict.fromkeys(("multiply", "add", "subtract", "vdot"), 0)
    targets = [(np, "multiply"), (np, "add"), (np, "subtract"), (side.linalg, "_vdot")]
    targets = [(module, name) for module, name in targets if hasattr(module, name)]
    originals = [getattr(module, name) for module, name in targets]
    try:
        for (module, name), f in zip(targets, originals):
            setattr(module, name, Counted(f, name.lstrip("_"), counts))
        _, (iterations, _) = run(side, cells, storage, full, bounds)
    finally:
        for (module, name), f in zip(targets, originals):
            setattr(module, name, f)
    counted = {name.lstrip("_") for _, name in targets}
    return "/".join(f"{calls / max(iterations, 1):.2f}" if name in counted else "-"
                    for name, calls in counts.items())


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
          f"{'A wins':>6} {'B wins':>6} {'A peak':>10} {'B peak':>10} "
          f"{'A calls/it':>23} {'B calls/it':>23}")
    differ = False
    for cells in args.cells:
        for storage in args.storage:
            rng = random.Random(1)
            problems = [(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
                        for _ in range(args.rounds)]
            times = ([], [])
            for k, bounds in enumerate(problems):
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
            peaks = [peak(side, cells, storage, args.full, problems[0]) for side in sides]
            calls = [count(side, cells, storage, args.full, problems[0]) for side in sides]
            print(f"{cells:>6} {storage:>7} {matrix:>6} {a:>9.2f} {b:>9.2f} {b / a:>6.2f} "
                  f"{wins[0]:>6} {wins[1]:>6} {peaks[0]:>10} {peaks[1]:>10} "
                  f"{calls[0]:>23} {calls[1]:>23}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
