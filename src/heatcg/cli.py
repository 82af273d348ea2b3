"""Command line interface: solve, verify, and pyramid subcommands.

Data goes to standard output (solve: CSV temperature profile; verify: the
error norm; pyramid: the report), diagnostics go to standard error. Exit
codes: 0 success, 1 failed check (non-convergence, error above threshold,
failing or slow tests), 2 invalid options, unreadable/malformed input, an
unwritable --out file, a problem whose assembly or solve overflows
binary64, or one too large to allocate (a dense solve holds up to two
N x N grids: the matrix and, on a numpy whose einsum fails linalg's
rounding probe, the terms buffer its products share, allocated once per
solve; it is refused before allocating when two grids exceed the
machine's physical memory; --storage crs takes O(N)), 3 pyramid ordering
violation.

Floats are printed with 17 significant digits, enough to round-trip
binary64 exactly, so identical options produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, Callable, Optional, Sequence

from . import (  # through the package, so importing cli loads all five modules
    DEFAULT_UNIT_BUDGET_MS, CgConfig, HeatProblem, HeatSolution, Layer, ManifestError,
    TestStatus, cell_centers, parse_manifest, pyramid_report, render_report, solve_heat,
)
from ._checks import checked_real

__all__ = ["build_parser", "main"]


def _fmt(value: float) -> str:
    return "%.17g" % value


def _positive_real(text: str) -> float:
    """argparse type for a finite positive real; a bad value exits 2 with usage."""
    try:
        return checked_real(float(text), "value", "positive")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_solve_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cells", type=int, default=100, help="number of cells (default 100)")
    sub.add_argument("--gamma", type=float, default=1.0, help="diffusivity (default 1.0)")
    sub.add_argument("--length", type=float, default=1.0, help="domain length (default 1.0)")
    sub.add_argument("--t-left", type=float, default=0.0, help="left boundary value (default 0.0)")
    sub.add_argument("--t-right", type=float, default=1.0, help="right boundary value (default 1.0)")
    sub.add_argument("--max-iters", type=int, default=1000, help="iteration cap (default 1000)")
    sub.add_argument("--tol", type=float, default=1e-10, help="absolute residual tolerance (default 1e-10)")
    sub.add_argument("--storage", choices=("dense", "crs"), default="dense",
                     help="operator storage handed to the solver (default dense)")


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatcg",
        description="Solve the steady 1D heat equation with conjugate gradients "
        "and audit test pyramids.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser(
        "solve", help="solve and emit an x,temperature CSV profile"
    )
    _add_solve_options(solve)
    solve.add_argument("--out", default=None, help="write CSV here instead of standard output")
    solve.set_defaults(func=cmd_solve, subparser=solve)

    verify = commands.add_parser(
        "verify", help="solve and check the error against the analytic profile"
    )
    _add_solve_options(verify)
    verify.add_argument(
        "--threshold", type=_positive_real, default=1e-8,
        help="acceptance bound on the L2 error (default 1e-8)",
    )
    verify.set_defaults(func=cmd_verify, subparser=verify)

    pyramid = commands.add_parser(
        "pyramid", help="audit a test-run manifest for pyramid shape"
    )
    pyramid.add_argument("manifest", help="path to a layer,name,duration_ms,status CSV")
    pyramid.add_argument(
        "--unit-budget-ms", type=_positive_real, default=DEFAULT_UNIT_BUDGET_MS,
        help=f"duration budget for unit tests (default {DEFAULT_UNIT_BUDGET_MS:g})",
    )
    pyramid.set_defaults(func=cmd_pyramid, subparser=pyramid)
    return parser


def _heat_command(
    report: Callable[[argparse.Namespace, HeatProblem, HeatSolution], int]
) -> Callable[[argparse.Namespace], int]:
    """Wrap report(args, problem, solution) into a command that builds and solves the problem."""

    def command(args: argparse.Namespace) -> int:
        try:  # invalid values surface as exit 2 with a usage message
            problem = HeatProblem(
                gamma=args.gamma,
                domain_length=args.length,
                number_of_cells=args.cells,
                boundary_left=args.t_left,
                boundary_right=args.t_right,
            )
            config = CgConfig(max_iterations=args.max_iters, tolerance=args.tol)
        except (TypeError, ValueError) as exc:
            args.subparser.error(str(exc))
        if args.storage == "dense":
            # refused before allocating: under lazy overcommit the grid's
            # allocation succeeds and the first product exhausts the machine;
            # two grids, since the fallback product keeps an N x N terms buffer
            need, memory = 16 * args.cells**2, _physical_memory()
            if memory is not None and need > memory:
                print(f"error: a dense solve at N = {args.cells} can need {need} bytes "
                      f"(up to two N x N grids: the matrix, and the products' terms where "
                      f"numpy's einsum rounds differently), more than this machine's "
                      f"{memory}; --storage crs needs O(N) memory",
                      file=sys.stderr)
                return 2
        try:  # finite but extreme options can overflow, or underflow dx or gamma/dx
            solution = solve_heat(problem, config, storage=args.storage)
        except (ValueError, ArithmeticError) as exc:
            print(f"error: arithmetic left the binary64 range: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            hint = "; --storage crs needs O(N) memory" if args.storage == "dense" else ""
            print(f"error: out of memory: {exc}{hint}", file=sys.stderr)
            return 2
        status, cg = report(args, problem, solution), solution.cg
        if not (cg.converged or cg.breakdown) and args.max_iters < args.cells:
            print(f"hint: CG can need N = {args.cells} iterations here, more than "
                  f"--max-iters {args.max_iters}", file=sys.stderr)
        return status

    return command


def _write_profile(stream: IO[str], xs: Sequence[float], temps: Sequence[float]) -> None:
    stream.write("x,temperature\n")
    for x, t in zip(xs, temps):
        stream.write(f"{_fmt(x)},{_fmt(t)}\n")


@_heat_command
def cmd_solve(args: argparse.Namespace, problem: HeatProblem, solution: HeatSolution) -> int:
    xs = cell_centers(problem).components
    temps = solution.temperature.components
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as stream:
                _write_profile(stream, xs, temps)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        _write_profile(sys.stdout, xs, temps)
    cg = solution.cg
    print(
        f"cells={problem.number_of_cells} storage={args.storage} "
        f"converged={cg.converged} iterations={cg.iterations} "
        f"residual_norm={_fmt(cg.residual_norm)}",
        file=sys.stderr,
    )
    if not cg.converged:
        reason = "breakdown" if cg.breakdown else "iteration cap reached"
        print(f"warning: solver did not converge ({reason})", file=sys.stderr)
        return 1
    return 0


@_heat_command
def cmd_verify(args: argparse.Namespace, problem: HeatProblem, solution: HeatSolution) -> int:
    cg = solution.cg
    error = solution.l2_error_vs_analytic
    print(_fmt(error))
    print(
        f"cells={problem.number_of_cells} converged={cg.converged} "
        f"iterations={cg.iterations} residual_norm={_fmt(cg.residual_norm)} "
        f"l2_error_vs_analytic={_fmt(error)} threshold={_fmt(args.threshold)}",
        file=sys.stderr,
    )
    if not cg.converged:
        print("verify: FAILED (solver did not converge)", file=sys.stderr)
        return 1
    if not error < args.threshold:
        print("verify: FAILED (error at or above threshold)", file=sys.stderr)
        return 1
    print("verify: OK", file=sys.stderr)
    return 0


def cmd_pyramid(args: argparse.Namespace) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as stream:
            text = stream.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    try:
        records = parse_manifest(text)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = pyramid_report(records, unit_budget_ms=args.unit_budget_ms)
    sys.stdout.write(render_report(report))
    if not report.pyramid_ok:
        counts = report.layer_counts
        print(
            f"pyramid violated: unit={counts[Layer.UNIT]} "
            f"integration={counts[Layer.INTEGRATION]} system={counts[Layer.SYSTEM]}",
            file=sys.stderr,
        )
        return 3
    bad_statuses = (
        report.status_counts[TestStatus.FAIL] + report.status_counts[TestStatus.TIMEOUT]
    )
    if bad_statuses or report.slow_unit_tests:
        print(
            f"audit failed: {bad_statuses} failing/timed-out tests, "
            f"{len(report.slow_unit_tests)} slow unit tests",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported with the usage of the subcommand that was run
        args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args.func(args)
