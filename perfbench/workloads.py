"""Seeded workload inputs, the operations that run them, and the correctness gate.

Importing this module puts the checkout's own ``src/`` first on the path
and refuses to go on if ``heatcg`` is loaded from anywhere else, so the
benchmark always measures the working tree.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import os
import random
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_heatcg():
    if not (SRC / "heatcg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no heatcg sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import heatcg

    if Path(heatcg.__file__).resolve().parent != (SRC / "heatcg").resolve():
        raise SystemExit(f"perfbench: heatcg resolved to {heatcg.__file__}, not {SRC}")
    return heatcg


heatcg = _import_heatcg()

from heatcg import (  # noqa: E402  (must follow the path check above)
    CgConfig,
    HeatProblem,
    HeatSolution,
    analytic_solution,
    assemble,
    cg_solve,
    crs_matvec,
    dense_to_crs,
    l2_norm,
    matvec,
    parse_manifest,
    pyramid_report,
    render_report,
    solve_heat,
    vec_sub,
)
from heatcg import cli  # noqa: E402

from spans import Recorder  # noqa: E402

# The CLI's documented defaults: `verify --threshold` and `pyramid --unit-budget-ms`.
THRESHOLD = 1e-8
UNIT_BUDGET_MS = 100.0

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
))


@dataclass(frozen=True)
class Workload:
    name: str
    cells: int
    storage: str = "crs"
    reference: Optional[str] = None  # storage whose solve must match bit for bit
    manifest_rows: int = 20_000
    cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crs-cold", cells=400),
        Workload("dense-cold", cells=200, storage="dense", reference="crs"),
        Workload("cli-mix", cells=100, cli=True),
    )
}


def draw_problem(rng: random.Random, cells: int) -> HeatProblem:
    return HeatProblem(
        gamma=rng.uniform(0.5, 5.0),
        domain_length=rng.uniform(0.5, 5.0),
        number_of_cells=cells,
        boundary_left=rng.uniform(-100.0, 100.0),
        boundary_right=rng.uniform(-100.0, 100.0),
    )


# ---------------------------------------------------------------- library ops


@dataclass(frozen=True)
class LibraryOp:
    label: str
    problem: HeatProblem
    config: CgConfig


def library_ops(workload: Workload, seed: int) -> Iterator[LibraryOp]:
    """An endless seeded stream of distinct problems at the workload's N."""
    rng = random.Random(seed)
    for k in itertools.count():
        yield LibraryOp(f"op{k}", draw_problem(rng, workload.cells), CgConfig())


def solve(workload: Workload, op: LibraryOp) -> HeatSolution:
    return solve_heat(op.problem, op.config, storage=workload.storage)


def traced_solve(rec: Recorder, op_id: str, problem: HeatProblem, config: CgConfig,
                 storage: str) -> tuple[HeatSolution, int]:
    """solve_heat split into its public calls, each inside a span.

    Returns the solution and the operator's stored entry count. The
    operator handed to cg_solve is a callable that times each product.
    """
    with rec.span("heat1d.assemble", op_id):
        system = assemble(problem)
    if storage == "crs":
        with rec.span("linalg.dense_to_crs", op_id):
            operator = dense_to_crs(system.matrix)
        kernel, nnz = crs_matvec, operator.nnz()
    else:
        operator = system.matrix
        kernel, nnz = matvec, operator.rows * operator.cols

    def apply(v):
        with rec.span("linalg.matvec", op_id):
            return kernel(operator, v)

    with rec.span("cgsolver.cg_solve", op_id):
        result = cg_solve(apply, system.rhs, config)
    with rec.span("heat1d.verify", op_id):
        error = l2_norm(vec_sub(result.solution, analytic_solution(problem)))
    return HeatSolution(temperature=result.solution, cg=result, l2_error_vs_analytic=error), nnz


def analytic_error(problem: HeatProblem, temperatures: Sequence[float]) -> float:
    """L2 distance to T(x) = T_L + (T_R - T_L) x / L, computed without heatcg."""
    n = problem.number_of_cells
    dx = problem.domain_length / n
    span = problem.boundary_right - problem.boundary_left
    total = 0.0
    for i, t in enumerate(temperatures):
        exact = problem.boundary_left + span * ((i + 0.5) * dx) / problem.domain_length
        total += (t - exact) ** 2
    return math.sqrt(total)


def packed(values: Sequence[float]) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def check_solution(workload: Workload, op: LibraryOp, outcome) -> list[str]:
    """Failures of one library op; an exception counts as a failure."""
    if isinstance(outcome, Exception):
        return [f"{op.label}: raised {type(outcome).__name__}: {outcome}"]
    temps = outcome.temperature.components
    failures = []
    if not outcome.cg.converged:
        failures.append(f"{op.label}: did not converge in {outcome.cg.iterations} iterations")
    if len(temps) != op.problem.number_of_cells:
        failures.append(f"{op.label}: {len(temps)} temperatures for {op.problem.number_of_cells} cells")
    error = analytic_error(op.problem, temps)
    if not (error < THRESHOLD and outcome.l2_error_vs_analytic < THRESHOLD):
        failures.append(
            f"{op.label}: L2 error {error!r} (reported {outcome.l2_error_vs_analytic!r}) "
            f"not below {THRESHOLD}"
        )
    if workload.reference is not None:
        ref = solve_heat(op.problem, op.config, storage=workload.reference)
        if packed(ref.temperature.components) != packed(temps):
            failures.append(f"{op.label}: {workload.storage} and {workload.reference} differ")
    return failures


def solution_bytes(outcome) -> bytes:
    if isinstance(outcome, Exception):
        return repr(outcome).encode()
    return packed(outcome.temperature.components) + struct.pack("<q", outcome.cg.iterations)


# -------------------------------------------------------------------- cli ops


@dataclass(frozen=True)
class CliOp:
    label: str  # stable across checkouts, unlike the manifest's path
    args: tuple[str, ...]
    group: str  # ops of one group must print identical bytes
    expected_exit: int
    problem: Optional[HeatProblem] = None
    expected_lines: tuple[str, ...] = ()


def problem_flags(p: HeatProblem) -> tuple[str, ...]:
    return (
        "--cells", str(p.number_of_cells), f"--gamma={p.gamma!r}", f"--length={p.domain_length!r}",
        f"--t-left={p.boundary_left!r}", f"--t-right={p.boundary_right!r}",
    )


def write_manifest(rng: random.Random, rows: int, path: Path) -> tuple[int, tuple[str, ...]]:
    """Write a seeded manifest; return the exit code and report lines it earns.

    Half the manifests break the pyramid shape (exit 3); of the rest, about
    three in four carry failures or over-budget unit tests (exit 1). The
    expectation is worked out here, independently of heatcg.
    """
    shape_ok, failing, slow = rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.5
    layers = ("unit", "integration", "system")
    layer_weights = (6, 3, 1) if shape_ok else (3, 5, 2)
    statuses = ["ok", "skipped", "expected_fail", "unexpected_pass"] + (["fail", "timeout"] if failing else [])
    status_weights = [90, 4, 3, 1] + ([1, 1] if failing else [])
    layer_counts = dict.fromkeys(layers, 0)
    status_counts = dict.fromkeys(statuses, 0)
    over_budget = []
    lines = ["layer,name,duration_ms,status"]
    for k in range(rows):
        layer = rng.choices(layers, layer_weights)[0]
        status = rng.choices(statuses, status_weights)[0]
        if layer != "unit":
            duration = rng.uniform(1.0, 5000.0)
        elif slow and rng.random() < 0.002:
            duration = rng.uniform(100.5, 400.0)
        else:
            duration = rng.uniform(0.01, 90.0)
        text = f"{duration:.3f}"
        if layer == "unit" and float(text) > UNIT_BUDGET_MS:
            over_budget.append(f"test_{k:05d}")
        layer_counts[layer] += 1
        status_counts[status] += 1
        lines.append(f"{layer},test_{k:05d},{text},{status}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    u, i, s = (layer_counts[layer] for layer in layers)
    shape = u >= i >= s
    bad = status_counts.get("fail", 0) + status_counts.get("timeout", 0)
    expected_exit = 0 if shape and not bad and not over_budget else (1 if shape else 3)
    expected = [f"{layer}: {layer_counts[layer]}" for layer in layers]
    expected += [f"Fail: {status_counts.get('fail', 0)}", f"Timeout: {status_counts.get('timeout', 0)}"]
    expected += [f"slow unit test: {name}" for name in over_budget]
    expected.append(f"pyramid: {'OK' if shape else 'VIOLATED'}")
    return expected_exit, tuple(expected)


def cli_cycle(workload: Workload, seed: int, out_dir: Path) -> list[CliOp]:
    """Two seeded problems and two seeded manifests as eight CLI operations,
    in a seeded order. Each solve runs with both storages and each argument
    list recurs every cycle, so both byte-identity checks have pairs."""
    rng = random.Random(seed)
    ops = []
    for slot in range(2):
        p = draw_problem(rng, workload.cells)
        flags = problem_flags(p)
        ops.append(CliOp(f"solve#{slot}", ("solve", *flags), f"solve#{slot}", 0, p))
        ops.append(CliOp(f"solve-crs#{slot}", ("solve", *flags, "--storage", "crs"), f"solve#{slot}", 0, p))
        ops.append(CliOp(f"verify#{slot}", ("verify", *flags), f"verify#{slot}", 0, p))
        path = out_dir / f"manifest-{workload.manifest_rows}-s{seed}-{slot}.csv"
        code, lines = write_manifest(rng, workload.manifest_rows, path)
        ops.append(CliOp(f"pyramid#{slot}", ("pyramid", str(path)), f"pyramid#{slot}", code, None, lines))
    rng.shuffle(ops)
    return ops


def run_cli(op: CliOp) -> tuple[int, bytes]:
    """One `python -m heatcg` child process running the checkout's sources."""
    done = subprocess.run(
        [sys.executable, "-m", "heatcg", *op.args],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, timeout=120,
    )
    return done.returncode, done.stdout


def run_cli_inprocess(op: CliOp) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(op.args))
    return code, out.getvalue().encode()


def check_cli(op: CliOp, outcome) -> list[str]:
    """Failures of one CLI op, judged from its exit code and stdout alone."""
    if isinstance(outcome, Exception):
        return [f"{op.label}: raised {type(outcome).__name__}: {outcome}"]
    code, stdout = outcome
    failures = []
    if code != op.expected_exit:
        failures.append(f"{op.label}: exit {code}, expected {op.expected_exit}")
    text = stdout.decode("utf-8", "replace")
    lines = text.splitlines()
    if op.args[0] == "solve":
        n = op.problem.number_of_cells
        try:
            if lines[0] != "x,temperature" or len(lines) != n + 1:
                raise ValueError(f"{len(lines)} lines")
            temps = [float(line.split(",")[1]) for line in lines[1:]]
            error = analytic_error(op.problem, temps)
        except (IndexError, ValueError) as exc:
            failures.append(f"{op.label}: malformed CSV ({exc})")
        else:
            if not error < THRESHOLD:
                failures.append(f"{op.label}: L2 error {error!r} not below {THRESHOLD}")
    elif op.args[0] == "verify":
        try:
            error = float(text)
        except ValueError:
            failures.append(f"{op.label}: stdout {text[:80]!r} is not a number")
        else:
            if not error < THRESHOLD:
                failures.append(f"{op.label}: reported L2 error {error!r} not below {THRESHOLD}")
    else:
        present = set(lines)
        missing = [line for line in op.expected_lines if line not in present]
        if missing:
            failures.append(f"{op.label}: report lacks {missing[:3]}")
    return failures


def check_identical(records: list[tuple[CliOp, object]]) -> list[Optional[str]]:
    """Per record, a failure if its stdout differs from the first of its group."""
    first: dict[str, bytes] = {}
    verdicts: list[Optional[str]] = []
    for op, outcome in records:
        if isinstance(outcome, Exception):
            verdicts.append(None)
            continue
        reference = first.setdefault(op.group, outcome[1])
        verdicts.append(
            None if outcome[1] == reference else f"{op.label}: stdout differs from an earlier {op.group}"
        )
    return verdicts


def cli_bytes(outcome) -> bytes:
    if isinstance(outcome, Exception):
        return repr(outcome).encode()
    code, stdout = outcome
    return struct.pack("<q", code) + stdout


def traced_pyramid(rec: Recorder, op_id: str, op: CliOp) -> int:
    """The pyramid command's three library calls, each inside a span."""
    text = Path(op.args[1]).read_text(encoding="utf-8")
    with rec.span("testpyramid.parse", op_id):
        records = parse_manifest(text)
    with rec.span("testpyramid.report", op_id):
        report = pyramid_report(records, unit_budget_ms=UNIT_BUDGET_MS)
    with rec.span("testpyramid.render", op_id):
        render_report(report)
    return len(records)


def digest(labelled: list[tuple[str, bytes]]) -> str:
    """SHA-256 over outputs keyed by op label, independent of their order."""
    h = hashlib.sha256()
    for label, data in sorted(labelled):
        h.update(label.encode() + b"\0" + struct.pack("<q", len(data)) + data)
    return h.hexdigest()
