"""Command line interface: solve, verify, and pyramid subcommands.

Data goes to standard output (solve: CSV temperature profile; verify: the
error norm; pyramid: the report), diagnostics go to standard error. Exit
codes: 0 success, 1 failed check (non-convergence, error above threshold,
failing or slow tests), 2 invalid options, unreadable/malformed input,
output that cannot be written (an --out file, or a full or closed
stdout), a problem whose assembly or solve overflows binary64, or one too
large to allocate: a solve that needs more than the machine's physical
memory is refused before allocating (a dense solve can hold two N x N
grids, the matrix and the terms buffer its products share on a numpy
whose einsum fails linalg's rounding probe; a CRS solve at least its
48N-byte band), 3 pyramid ordering violation. Every exit 2 but invalid
options prints one error: line.

Floats are printed with 17 significant digits, enough to round-trip
binary64 exactly, so identical options produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Optional, Sequence

from . import (  # through the package, so importing cli loads all five modules
    DEFAULT_UNIT_BUDGET_MS, CgConfig, HeatProblem, HeatSolution, Layer, ManifestError,
    TestStatus, cell_centers, parse_manifest, pyramid_report, render_report, solve_heat,
)
from ._checks import checked_real

__all__ = ["build_parser", "main"]


class _Refused(Exception):
    """A run that cannot go on; main prints its message as one error: line and exits 2."""


def _fmt(value: float) -> str:
    return "%.17g" % value


def _emit(text: str, path: Optional[str] = None) -> None:
    """Write a command's data to path, or to stdout flushed, so a failed write raises here."""
    if path is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)


def _positive_real(text: str) -> float:
    """argparse type for a finite positive real; a bad value exits 2 with usage."""
    try:
        return checked_real(float(text), "value", "positive")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_solve_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cells", type=int, default=HeatProblem.number_of_cells,
                     help="number of cells (default %(default)s)")
    sub.add_argument("--gamma", type=float, default=HeatProblem.gamma,
                     help="diffusivity (default %(default)s)")
    sub.add_argument("--length", type=float, default=HeatProblem.domain_length,
                     help="domain length (default %(default)s)")
    sub.add_argument("--t-left", type=float, default=HeatProblem.boundary_left,
                     help="left boundary value (default %(default)s)")
    sub.add_argument("--t-right", type=float, default=HeatProblem.boundary_right,
                     help="right boundary value (default %(default)s)")
    sub.add_argument("--max-iters", type=int, default=CgConfig.max_iterations,
                     help="iteration cap (default %(default)s)")
    sub.add_argument("--tol", type=float, default=CgConfig.tolerance,
                     help="absolute residual tolerance (default %(default)s)")
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
    for sub in (solve, verify, pyramid):  # "-1e3" is a value: no option starts with -<digit>
        sub._negative_number_matcher = re.compile(r"^-\.?\d")
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
        # refused before allocating: under lazy overcommit the allocation
        # succeeds and the first product exhausts the machine. A dense solve can
        # hold two grids, since the fallback product keeps an N x N terms buffer;
        # a CRS solve holds at least its band, 3N float64 values and intp columns
        dense, memory = args.storage == "dense", _physical_memory()
        need = 16 * args.cells**2 if dense else 48 * args.cells
        if memory is not None and need > memory:
            held = ("can need {} bytes (up to two N x N grids: the matrix, and the products' "
                    "terms where numpy's einsum rounds differently)" if dense else
                    "needs at least {} bytes (a band of 3N float64 values and intp columns)")
            hint = "; --storage crs needs O(N) memory" if dense else ""
            raise _Refused(f"a {args.storage} solve at N = {args.cells} {held.format(need)}, "
                           f"more than this machine's {memory}{hint}")
        try:  # finite but extreme options can overflow, or underflow dx or gamma/dx
            solution = solve_heat(problem, config, storage=args.storage)
        except (ValueError, ArithmeticError) as exc:
            raise _Refused(f"arithmetic left the binary64 range: {exc}")
        except MemoryError as exc:
            hint = "; --storage crs needs O(N) memory" if args.storage == "dense" else ""
            raise _Refused(f"out of memory: {exc}{hint}")
        status, cg = report(args, problem, solution), solution.cg
        if not (cg.converged or cg.breakdown) and args.max_iters < args.cells:
            print(f"hint: CG can need N = {args.cells} iterations here, more than "
                  f"--max-iters {args.max_iters}", file=sys.stderr)
        return status

    return command


@_heat_command
def cmd_solve(args: argparse.Namespace, problem: HeatProblem, solution: HeatSolution) -> int:
    rows = zip(cell_centers(problem).components, solution.temperature.components)
    _emit("x,temperature\n" + "".join(f"{_fmt(x)},{_fmt(t)}\n" for x, t in rows), args.out)
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
    _emit(_fmt(error) + "\n")
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
        raise _Refused(f"cannot read manifest: {exc}")
    try:
        records = parse_manifest(text)
    except ManifestError as exc:
        raise _Refused(str(exc))
    report = pyramid_report(records, unit_budget_ms=args.unit_budget_ms)
    _emit(render_report(report))
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
    try:
        return args.func(args)
    except _Refused as exc:  # the message only: a kept exception would hold its frames
        message = str(exc)
    except OSError as exc:  # the commands turn failed reads into _Refused: a failed write
        message = f"cannot write output: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return 2
