"""heatcg benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload crs-cold --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the checkout's own ``src/`` is what
gets measured. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it holds the run's facts (machine, inputs,
sample counts, tail percentile, output digest, failures). Workload notes
are in perfbench/WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import workloads as wl
from reference import REFERENCE_S, reference_seconds, to_reference
from spans import Recorder, busy_by_op, count_by_op, coverage, median_of, self_by_op

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 11
PROBE_SAMPLES = 5
CONTEXT_REPEATS = 2
TAIL_PERCENTILES = (99, 90, 75)
MIN_BEYOND = 10

# A fresh interpreter runs the reference kernel, then imports heatcg: CPU
# seconds of the import, the kernel's CPU seconds, wall seconds, where from.
IMPORT_PROBE = (
    f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import reference; "
    "r = reference.reference_seconds(); "
    "t, c = time.perf_counter(), time.process_time(); import heatcg; "
    "print(time.process_time() - c, r, time.perf_counter() - t, heatcg.__file__)"
)


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile; refuses a tail with under MIN_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {beyond} beyond it; {MIN_BEYOND} needed"
        )
    return ordered[rank - 1]


def tail(samples) -> dict:
    """The highest of TAIL_PERCENTILES that the sample count supports."""
    for q in TAIL_PERCENTILES:
        try:
            return {"percentile": q, "value": percentile(samples, q), "samples": len(samples)}
        except ValueError:
            continue
    return {"percentile": None, "samples": len(samples)}


def attempt(execute, op):
    try:
        return execute(op)
    except Exception as exc:  # a failing op is counted by the gate; the run goes on
        return exc


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Timed(NamedTuple):
    records: list
    cpu: list[float]  # per timed op
    wall: list[float]
    ref: list[float]  # reference_seconds() before the first timed op and after each
    wall_total: float

    @property
    def ref_s(self) -> list[float]:
        return to_reference(self.cpu, self.ref)


def timed_loop(ops, execute, seconds: float, min_ops: int) -> Timed:
    """One untimed warm-up op, then ops one after another until `seconds`
    of wall time have passed and at least `min_ops` were timed. The reference
    kernel runs before the first timed op and after each one."""
    first = next(ops)
    records = [(first, attempt(execute, first))]
    cpu, wall, ref = [], [], [reference_seconds()]
    start = time.perf_counter()
    while len(wall) < min_ops or time.perf_counter() - start < seconds:
        op = next(ops)
        c0, t0 = cpu_seconds(), time.perf_counter()
        outcome = attempt(execute, op)
        wall.append(time.perf_counter() - t0)
        cpu.append(cpu_seconds() - c0)
        ref.append(reference_seconds())
        records.append((op, outcome))
    return Timed(records, cpu, wall, ref, time.perf_counter() - start)


def child(args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=wl.ROOT, env=wl.CHILD_ENV, capture_output=True,
        text=True, check=True, timeout=120, **kwargs,
    )


def import_seconds(samples: int) -> tuple[list[float], list[float], list[float]]:
    """CPU, reference and wall seconds of `import heatcg` in fresh
    interpreters, each checked to have loaded src/. The reference kernel runs
    in the same interpreter just before the import; after it, numpy's idle
    threads would slow the kernel."""
    cpu, ref_s, wall = [], [], []
    for _ in range(samples):
        cpu_s, kernel_s, wall_s, where = child(["-c", IMPORT_PROBE]).stdout.split(maxsplit=3)
        if Path(where.strip()).resolve().parent != (wl.SRC / "heatcg").resolve():
            raise SystemExit(f"perfbench: child imported heatcg from {where.strip()}")
        cpu.append(float(cpu_s))
        ref_s.append(float(cpu_s) * REFERENCE_S / float(kernel_s))
        wall.append(float(wall_s))
    return cpu, ref_s, wall


def import_probes(samples: int) -> dict[str, float]:
    """Interpreter start-up, and cumulative import times from -X importtime."""
    interpreter, numkit, package = [], [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        child(["-c", "pass"])
        interpreter.append(time.perf_counter() - t0)
        cumulative = {}
        for line in child(["-X", "importtime", "-c", "import heatcg.cli"]).stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        numkit.append(cumulative["heatcg.numkit"])
        package.append(cumulative["heatcg.cli"])
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "numkit.import_s": statistics.median(numkit),
        "cli.import_s": statistics.median(package),
    }


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


# ------------------------------------------------------------ untraced run


def run_workload(workload: wl.Workload, seed: int, seconds: float, out_dir: Path, execute):
    """Feed the workload's seeded ops to `execute` in a timed loop, then gate
    every op. Returns the timings, per-op failures and the output digest."""
    if workload.cli:
        cycle = wl.cli_cycle(workload, seed, out_dir)
        timed = timed_loop(itertools.cycle(cycle), execute, seconds, len(cycle) - 1)
        failures = [wl.check_cli(op, out) for op, out in timed.records]
        for found, same in zip(failures, wl.check_identical(timed.records)):
            found.extend([same] if same else [])
        outputs = [(op.label, wl.cli_bytes(out)) for op, out in timed.records[: len(cycle)]]
    else:
        timed = timed_loop(wl.library_ops(workload, seed), execute, seconds, 1)
        failures = [wl.check_solution(workload, op, out) for op, out in timed.records]
        outputs = [(op.label, wl.solution_bytes(out)) for op, out in timed.records[:2]]
    return timed, failures, wl.digest(outputs)


def run_untraced(workload: wl.Workload, seed: int, seconds: float, out_dir: Path,
                 setup_samples: int = SETUP_SAMPLES):
    setup_cpu, setup_ref, setup_wall = import_seconds(setup_samples)
    execute = wl.run_cli if workload.cli else (lambda op: wl.solve(workload, op))
    timed, failures, output_digest = run_workload(workload, seed, seconds, out_dir, execute)
    ops, ref_s = len(timed.cpu), timed.ref_s
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "op_ref_s_p50": statistics.median(ref_s),
        "ops_per_ref_s": ops / sum(ref_s),
        # one CLI child runs at a time, so the largest child adds to this process
        "peak_rss_mb": peak_rss_mb(with_children=workload.cli),
    }
    facts = {
        "samples": {"setup_s": len(setup_ref), "op_ref_s_p50": ops, "ops_per_ref_s": ops,
                    "peak_rss_mb": 1},
        "op_ref_s_tail": tail(ref_s),
        "reference_cpu_s": {"p50": statistics.median(timed.ref), "min": min(timed.ref),
                            "max": max(timed.ref), "samples": len(timed.ref)},
        "cpu": {"setup_s": statistics.median(setup_cpu), "op_s_p50": statistics.median(timed.cpu),
                "ops_per_s": ops / sum(timed.cpu), "op_s_tail": tail(timed.cpu)},
        "wall": {"setup_s": statistics.median(setup_wall), "op_s_p50": statistics.median(timed.wall),
                 "ops_per_s": ops / timed.wall_total, "op_s_tail": tail(timed.wall),
                 "run_s": timed.wall_total},
    }
    return metrics, failures, output_digest, facts


# -------------------------------------------------------------- traced run


class TraceMismatch(Exception):
    """The split, traced calls disagree with the untraced operation."""


def run_traced(workload: wl.Workload, seed: int, seconds: float, out_dir: Path,
               probe_samples: int = PROBE_SAMPLES):
    """Each op runs untraced, then split into spans around heatcg's public calls."""
    rec = Recorder()
    meta: dict[str, dict] = {}
    untraced: list[float] = []

    def library_pair(op: wl.LibraryOp):
        t0 = time.perf_counter()
        plain = wl.solve(workload, op)
        untraced.append(time.perf_counter() - t0)
        with rec.span("op", op.label):
            traced, nnz = wl.traced_solve(rec, op.label, op.problem, op.config, workload.storage)
        meta[op.label] = {"cells": workload.cells, "nnz": nnz, "iterations": traced.cg.iterations}
        if workload.storage == "dense":
            # a dense op never converts; time the conversion its CRS reference makes
            system = wl.assemble(op.problem)
            with rec.span("linalg.dense_to_crs", op.label):
                wl.dense_to_crs(system.matrix)
        if wl.solution_bytes(traced) != wl.solution_bytes(plain):
            raise TraceMismatch("traced temperatures differ from solve_heat")
        return traced

    def cli_pair(op: wl.CliOp):
        op_id = f"{op.label}@{len(untraced)}"
        t0 = time.perf_counter()
        wl.run_cli_inprocess(op)
        untraced.append(time.perf_counter() - t0)
        with rec.span("op", op_id), rec.span("cli.main", op_id):
            outcome = wl.run_cli_inprocess(op)
        if op.problem is None:
            meta[op_id] = {"rows": wl.traced_pyramid(rec, op_id, op)}
            return outcome
        storage = "crs" if "crs" in op.args else "dense"
        split, nnz = wl.traced_solve(rec, op_id, op.problem, wl.CgConfig(), storage)
        meta[op_id] = {"cells": workload.cells, "nnz": nnz, "iterations": split.cg.iterations}
        text = outcome[1].decode()
        if op.args[0] == "solve":
            printed = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
            same = wl.packed(printed) == wl.packed(split.temperature.components)
        else:
            same = float(text) == split.l2_error_vs_analytic
        if not same:
            raise TraceMismatch("stdout differs from the split, traced solve")
        return outcome

    execute = cli_pair if workload.cli else library_pair
    _, failures, output_digest = run_workload(workload, seed, seconds, out_dir, execute)
    if not workload.cli:
        # library ops never reach the CLI or the auditor: time both on the
        # seeded manifests, as context for cli.main_s and testpyramid.*
        pyramids = [op for op in wl.cli_cycle(workload, seed, out_dir) if op.problem is None]
        for k, op in enumerate(pyramids * CONTEXT_REPEATS):
            op_id = f"context-{op.label}@{k}"
            with rec.span("cli.main", op_id):
                outcome = attempt(wl.run_cli_inprocess, op)
            failures.append(wl.check_cli(op, outcome))
            meta[op_id] = {"rows": wl.traced_pyramid(rec, op_id, op)}

    metrics, facts = layer_metrics(rec, meta, untraced)
    probes = import_probes(probe_samples)
    metrics.update(probes)
    facts["samples"].update(dict.fromkeys(probes, probe_samples))
    rec.write(out_dir / f"spans-{workload.name}-s{seed}.jsonl")
    return metrics, failures, output_digest, facts


def layer_metrics(rec: Recorder, meta: dict, untraced: list[float]):
    """Per-layer figures from the spans; each comes with the ops it covers."""
    spans = rec.spans
    busy = {name: busy_by_op(spans, name) for name in (
        "op", "heat1d.assemble", "heat1d.verify", "linalg.dense_to_crs", "linalg.matvec",
        "cgsolver.cg_solve", "cli.main", "testpyramid.parse", "testpyramid.report",
        "testpyramid.render",
    )}
    assemble, matvec, solve = (busy[n] for n in ("heat1d.assemble", "linalg.matvec", "cgsolver.cg_solve"))
    matvecs = count_by_op(spans, "linalg.matvec")
    own = self_by_op(spans, "cgsolver.cg_solve")
    parsed = busy["testpyramid.parse"]
    iterations = sum(meta[op]["iterations"] for op in solve)
    cell_iterations = sum(meta[op]["cells"] * meta[op]["iterations"] for op in solve)
    figures = {
        "heat1d.assemble_s": (median_of(assemble), assemble),
        "heat1d.assemble_ns_per_cell":
            (1e9 * sum(assemble.values()) / sum(meta[op]["cells"] for op in assemble), assemble),
        "heat1d.verify_s": (median_of(busy["heat1d.verify"]), busy["heat1d.verify"]),
        "linalg.dense_to_crs_s":
            (median_of(busy["linalg.dense_to_crs"]), busy["linalg.dense_to_crs"]),
        "linalg.matvec_s": (median_of(matvec), matvec),
        "linalg.matvecs": (statistics.median(matvecs.values()), matvecs),
        "linalg.matvec_ns_per_nnz":
            (1e9 * sum(matvec.values()) / sum(matvecs[op] * meta[op]["nnz"] for op in matvecs), matvec),
        "linalg.matvecs_per_iteration": (sum(matvecs[op] for op in solve) / iterations, solve),
        "cgsolver.solve_s": (median_of(solve), solve),
        "cgsolver.self_s": (median_of(own), own),
        "cgsolver.self_ns_per_cell_iteration": (1e9 * sum(own.values()) / cell_iterations, own),
        "cgsolver.iterations": (statistics.median(meta[op]["iterations"] for op in solve), solve),
        "cli.main_s": (median_of(busy["cli.main"]), busy["cli.main"]),
        "testpyramid.parse_s": (median_of(parsed), parsed),
        "testpyramid.report_s": (median_of(busy["testpyramid.report"]), busy["testpyramid.report"]),
        "testpyramid.render_s": (median_of(busy["testpyramid.render"]), busy["testpyramid.render"]),
        "testpyramid.rows": (statistics.median(meta[op]["rows"] for op in parsed), parsed),
        "trace.overhead_s": (median_of(busy["op"]) - statistics.median(untraced), busy["op"]),
    }
    facts = {
        "samples": {name: len(ops) for name, (_, ops) in figures.items()},
        "trace_coverage": coverage(spans, "op"),
        "matvecs_eq_iterations_plus_1": all(
            matvecs.get(op, 0) == meta[op]["iterations"] + 1 for op in solve
        ),
    }
    return {name: value for name, (value, _) in figures.items()}, facts


# ------------------------------------------------------------------- main


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((wl.SRC / "heatcg").rglob("*.py")):
        h.update(path.relative_to(wl.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (wl.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload: wl.Workload, seed: int, seconds: float, trace: bool,
            out_dir: Path = OUT_DIR, **samples):
    """Run one workload; return (facts, result line) as dicts."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if trace else "end_to_end"]
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(wl.SRC)], check=True,
                   capture_output=True, timeout=120)
    run = run_traced if trace else run_untraced
    metrics, failures, output_digest, run_facts = run(workload, seed, seconds, out_dir, **samples)
    if set(metrics) != {m["name"] for m in section}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    attempted = len(failures)
    failed = sum(1 for found in failures if found)
    facts = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cells": workload.cells, "storage": workload.storage if not workload.cli else "cli",
        "manifest_rows": workload.manifest_rows if workload.cli else None,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__, "commit": git_commit(),
        "src_sha256": source_digest(), "output_sha256": output_digest,
        "error_rate": failed / attempted,
        "failures": [message for found in failures for message in found][:20],
        **run_facts,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }
    return facts, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    facts, result = measure(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for message in facts["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
