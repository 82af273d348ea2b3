"""Command line interface: solve, verify, and pyramid subcommands.

Data goes to standard output (solve: CSV temperature profile; verify: the
error norm; pyramid: the report), diagnostics go to standard error. Exit
codes: 0 success, 1 failed check (non-convergence, error above threshold,
failing or slow tests), 2 invalid options, unreadable/malformed input,
output that cannot be written (an --out file, or a full or closed
stdout), a problem whose assembly or solve overflows binary64, or one too
large to allocate: a solve that needs more than the machine's physical
memory is refused before allocating (a dense solve when two N x N grids,
the matrix and its grid product's terms buffer, would not fit, a
conservative bound, since from N = 95 the heat matrix's dense view holds
no grid; a CRS solve at least its 48N-byte band), 3 pyramid ordering
violation. Every exit 2 but invalid options prints one error: line.

Floats are printed with 17 significant digits, enough to round-trip
binary64 exactly, so identical options produce byte-identical output.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence

# the commands use nothing of numkit, which loads no numpy; two readers need
# `python -X importtime -c "import heatcg.cli"` to list it: perfbench/run.py
# import_probes, which reads cumulative["heatcg.numkit"], and
# test_traced_import_of_the_cli_lists_numkit_and_cli
from . import numkit  # noqa: F401
from ._checks import checked_real

if TYPE_CHECKING:
    from .heat1d import HeatProblem, HeatSolution

__all__ = ["build_parser", "main"]

# The library names the commands call, and the module of each. They load on
# first use (PEP 562), so a run loads only its own command's modules: pyramid
# no numpy, solve and verify no auditor.
_LIBRARY = {
    "CgConfig": "cgsolver",
    **dict.fromkeys(("HeatProblem", "cell_centers", "solve_heat"), "heat1d"),
    **dict.fromkeys(("DEFAULT_UNIT_BUDGET_MS", "Layer", "ManifestError", "TestStatus",
                     "_columns", "_tally", "render_report"), "testpyramid"),
}


def __getattr__(name: str) -> object:
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{_LIBRARY[name]}"), name)
    globals()[name] = value
    return value


# the commands read library names through the module, not as bare globals: the
# read reaches __getattr__, and a name patched on cli is the one called
_cli = sys.modules[__name__]


class _Refused(Exception):
    """A run that cannot go on; main prints its message as one error: line and exits 2."""


def _fmt(value: float) -> str:
    return "%.17g" % value


def _emit(text: str, path: Optional[str] = None) -> None:
    """Write a command's data to path, or to stdout flushed, so a failed write raises here."""
    if path is None:
        if sys.stdout is None:  # fd 1 was closed at start-up
            raise OSError("stdout is closed")
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
    problem, config = _cli.HeatProblem, _cli.CgConfig
    sub.add_argument("--cells", type=int, default=problem.number_of_cells,
                     help="number of cells (default %(default)s)")
    sub.add_argument("--gamma", type=float, default=problem.gamma,
                     help="diffusivity (default %(default)s)")
    sub.add_argument("--length", type=float, default=problem.domain_length,
                     help="domain length (default %(default)s)")
    sub.add_argument("--t-left", type=float, default=problem.boundary_left,
                     help="left boundary value (default %(default)s)")
    sub.add_argument("--t-right", type=float, default=problem.boundary_right,
                     help="right boundary value (default %(default)s)")
    sub.add_argument("--max-iters", type=int, default=config.max_iterations,
                     help="iteration cap (default %(default)s)")
    sub.add_argument("--tol", type=float, default=config.tolerance,
                     help="absolute residual tolerance (default %(default)s)")
    sub.add_argument("--storage", choices=("dense", "crs"), default="dense",
                     help="operator storage handed to the solver (default dense)")


def _solve_options(sub: argparse.ArgumentParser) -> None:
    _add_solve_options(sub)
    sub.add_argument("--out", default=None, help="write CSV here instead of standard output")


def _verify_options(sub: argparse.ArgumentParser) -> None:
    _add_solve_options(sub)
    sub.add_argument(
        "--threshold", type=_positive_real, default=1e-8,
        help="acceptance bound on the L2 error (default 1e-8)",
    )


def _pyramid_options(sub: argparse.ArgumentParser) -> None:
    budget = _cli.DEFAULT_UNIT_BUDGET_MS
    sub.add_argument("manifest", help="path to a layer,name,duration_ms,status CSV")
    sub.add_argument(
        "--unit-budget-ms", type=_positive_real, default=budget,
        help=f"duration budget for unit tests (default {budget:g})",
    )


class _Parser(argparse.ArgumentParser):
    """A parser whose help goes through _emit: a failed write raises, not lost or left buffered."""

    def print_help(self, file=None) -> None:
        if file is None:
            _emit(self.format_help())
        else:
            super().print_help(file)


class _Command(_Parser):
    """A subcommand's parser: add_options(self) adds its options on the first parse,
    so the modules their defaults come from load only for the command that runs."""

    def __init__(self, *args, add_options: Callable[[argparse.ArgumentParser], None],
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_options = add_options
        # "-1e3" is a value: no option starts with -<digit>
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def parse_known_args(self, args: Optional[Sequence[str]] = None,
                         namespace: Optional[argparse.Namespace] = None):
        if self._add_options is not None:
            add_options, self._add_options = self._add_options, None
            add_options(self)
        return super().parse_known_args(args, namespace)


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heatcg",
        description="Solve the steady 1D heat equation with conjugate gradients "
        "and audit test pyramids.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, summary, add_options, func in (
        ("solve", "solve and emit an x,temperature CSV profile", _solve_options, cmd_solve),
        ("verify", "solve and check the error against the analytic profile", _verify_options,
         cmd_verify),
        ("pyramid", "audit a test-run manifest for pyramid shape", _pyramid_options, cmd_pyramid),
    ):
        command = commands.add_parser(name, help=summary, add_options=add_options)
        command.set_defaults(func=func, subparser=command)
    return parser


def _heat_command(
    report: Callable[[argparse.Namespace, HeatProblem, HeatSolution], int]
) -> Callable[[argparse.Namespace], int]:
    """Wrap report(args, problem, solution) into a command that builds and solves the problem."""

    def command(args: argparse.Namespace) -> int:
        try:  # invalid values surface as exit 2 with a usage message
            problem = _cli.HeatProblem(
                gamma=args.gamma,
                domain_length=args.length,
                number_of_cells=args.cells,
                boundary_left=args.t_left,
                boundary_right=args.t_right,
            )
            config = _cli.CgConfig(max_iterations=args.max_iters, tolerance=args.tol)
        except (TypeError, ValueError) as exc:
            args.subparser.error(str(exc))
        # refused before allocating: under lazy overcommit the allocation
        # succeeds and the first product exhausts the machine. A dense solve by
        # the grid product holds two grids, the matrix and its N x N terms
        # buffer; from N = 95 the heat matrix's dense view runs its CRS passes
        # and holds no grid, so 16 N^2 bytes is a conservative bound. A CRS
        # solve holds at least its band, 3N float64 values and intp columns
        dense, memory = args.storage == "dense", _physical_memory()
        need = 16 * args.cells**2 if dense else 48 * args.cells
        hint = "; --storage crs needs O(N) memory" if dense else ""
        if memory is not None and need > memory:
            held = ("can need {} bytes (up to two N x N grids: the matrix, and the grid "
                    "product's terms buffer)" if dense else
                    "needs at least {} bytes (a band of 3N float64 values and intp columns)")
            raise _Refused(f"a {args.storage} solve at N = {args.cells} {held.format(need)}, "
                           f"more than this machine's {memory}{hint}")
        try:  # finite but extreme options can overflow, or underflow dx or gamma/dx
            solution = _cli.solve_heat(problem, config, storage=args.storage)
        except (ValueError, ArithmeticError) as exc:
            raise _Refused(f"arithmetic left the binary64 range: {exc}")
        except MemoryError as exc:
            raise _Refused(f"out of memory: {exc}{hint}")
        status, cg = report(args, problem, solution), solution.cg
        if not (cg.converged or cg.breakdown) and args.max_iters < args.cells:
            print(f"hint: CG can need N = {args.cells} iterations here, more than "
                  f"--max-iters {args.max_iters}", file=sys.stderr)
        return status

    return command


@_heat_command
def cmd_solve(args: argparse.Namespace, problem: HeatProblem, solution: HeatSolution) -> int:
    rows = zip(_cli.cell_centers(problem).components, solution.temperature.components)
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
    try:  # the manifest's checked columns, tallied without building a record per test
        columns = _cli._columns(text)
    except _cli.ManifestError as exc:
        raise _Refused(str(exc))
    report = _cli._tally(*columns, args.unit_budget_ms)
    _emit(_cli.render_report(report))
    if not report.pyramid_ok:
        counts = " ".join(f"{layer.value}={report.layer_counts[layer]}" for layer in _cli.Layer)
        print(f"pyramid violated: {counts}", file=sys.stderr)
        return 3
    statuses, status = report.status_counts, _cli.TestStatus
    bad_statuses = statuses[status.FAIL] + statuses[status.TIMEOUT]
    if bad_statuses or report.slow_unit_tests:
        print(
            f"audit failed: {bad_statuses} failing/timed-out tests, "
            f"{len(report.slow_unit_tests)} slow unit tests",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:  # --help writes to stdout while parsing
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:  # reported with the usage of the subcommand that was run
            args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return args.func(args)
    except _Refused as exc:  # the message only: a kept exception would hold its frames
        message = str(exc)
    except OSError as exc:  # the commands turn failed reads into _Refused: a failed write
        message = f"cannot write output: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return 2
