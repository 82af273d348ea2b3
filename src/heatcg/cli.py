"""Command line interface: solve, verify, and pyramid subcommands.

Data goes to standard output (solve: CSV temperature profile; verify: the
error norm; pyramid: the report), diagnostics go to standard error. Exit
codes: 0 success, 1 failed check (non-convergence, error above threshold,
failing or slow tests), 2 invalid options, unreadable/malformed input, an
unwritable --out file, or a problem whose assembly or solve overflows
binary64, 3 pyramid ordering violation.

Floats are printed with 17 significant digits, enough to round-trip
binary64 exactly, so identical options produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import IO, Optional, Sequence

from .cgsolver import CgConfig
from .heat1d import HeatProblem, HeatSolution, cell_centers, solve_heat
from .testpyramid import (
    DEFAULT_UNIT_BUDGET_MS,
    Layer,
    ManifestError,
    TestStatus,
    parse_manifest,
    pyramid_report,
    render_report,
)

__all__ = ["build_parser", "main"]


def _fmt(value: float) -> str:
    return "%.17g" % value


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
    sub.add_argument("--out", default=None, help="write CSV here instead of standard output")


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
    solve.set_defaults(func=cmd_solve, subparser=solve)

    verify = commands.add_parser(
        "verify", help="solve and check the error against the analytic profile"
    )
    _add_solve_options(verify)
    verify.add_argument(
        "--threshold", type=float, default=1e-8,
        help="acceptance bound on the L2 error (default 1e-8)",
    )
    verify.set_defaults(func=cmd_verify, subparser=verify)

    pyramid = commands.add_parser(
        "pyramid", help="audit a test-run manifest for pyramid shape"
    )
    pyramid.add_argument("manifest", help="path to a layer,name,duration_ms,status CSV")
    pyramid.add_argument(
        "--unit-budget-ms", type=float, default=DEFAULT_UNIT_BUDGET_MS,
        help=f"duration budget for unit tests (default {DEFAULT_UNIT_BUDGET_MS:g})",
    )
    pyramid.set_defaults(func=cmd_pyramid, subparser=pyramid)
    return parser


def _heat_inputs(args: argparse.Namespace) -> tuple[HeatProblem, CgConfig]:
    # invalid values surface as exit 2 with a usage message
    try:
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
    return problem, config


def _solve(problem: HeatProblem, config: CgConfig, storage: str) -> Optional[HeatSolution]:
    try:  # finite but extreme options can overflow, or underflow dx to 0
        return solve_heat(problem, config, storage=storage)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: arithmetic left the binary64 range: {exc}", file=sys.stderr)
        return None


def _write_profile(stream: IO[str], xs: Sequence[float], temps: Sequence[float]) -> None:
    stream.write("x,temperature\n")
    for x, t in zip(xs, temps):
        stream.write(f"{_fmt(x)},{_fmt(t)}\n")


def cmd_solve(args: argparse.Namespace) -> int:
    problem, config = _heat_inputs(args)
    solution = _solve(problem, config, args.storage)
    if solution is None:
        return 2
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


def cmd_verify(args: argparse.Namespace) -> int:
    problem, config = _heat_inputs(args)
    threshold = args.threshold
    if not math.isfinite(threshold) or threshold <= 0:
        args.subparser.error(f"--threshold must be a finite positive real, got {threshold!r}")
    solution = _solve(problem, config, args.storage)
    if solution is None:
        return 2
    cg = solution.cg
    error = solution.l2_error_vs_analytic
    print(_fmt(error))
    print(
        f"cells={problem.number_of_cells} converged={cg.converged} "
        f"iterations={cg.iterations} residual_norm={_fmt(cg.residual_norm)} "
        f"l2_error_vs_analytic={_fmt(error)} threshold={_fmt(threshold)}",
        file=sys.stderr,
    )
    if not cg.converged:
        print("verify: FAILED (solver did not converge)", file=sys.stderr)
        return 1
    if not error < threshold:
        print("verify: FAILED (error at or above threshold)", file=sys.stderr)
        return 1
    print("verify: OK", file=sys.stderr)
    return 0


def cmd_pyramid(args: argparse.Namespace) -> int:
    budget = args.unit_budget_ms
    if not math.isfinite(budget) or budget <= 0:
        args.subparser.error(f"--unit-budget-ms must be a finite positive real, got {budget!r}")
    try:
        with open(args.manifest, "r", encoding="utf-8") as stream:
            text = stream.read()
    except OSError as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    try:
        records = parse_manifest(text)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = pyramid_report(records, unit_budget_ms=budget)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
