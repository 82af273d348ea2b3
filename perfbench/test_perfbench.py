"""Self-tests for the benchmark harness, at tiny N: python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads as wl


def tiny(name: str) -> wl.Workload:
    return dataclasses.replace(wl.WORKLOADS[name], cells=30 if name != "cli-mix" else 10,
                               manifest_rows=60)


def measure(name, tmp_path, trace=False, seed=5):
    samples = {"probe_samples": 1} if trace else {"setup_samples": 1}
    return run.measure(tiny(name), seed, 0.0, trace, tmp_path, **samples)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_benchmark_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    facts, result = measure(name, tmp_path, trace)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(facts["samples"]) == set(expected)
    assert facts["error_rate"] == 0.0
    assert name in {w["name"] for w in spec["workloads"]}


def test_same_seed_gives_same_inputs_and_digest(tmp_path):
    w = tiny("crs-cold")
    first = [op.problem for op in itertools.islice(wl.library_ops(w, 9), 3)]
    assert first == [op.problem for op in itertools.islice(wl.library_ops(w, 9), 3)]
    assert first != [op.problem for op in itertools.islice(wl.library_ops(w, 10), 3)]

    cli = tiny("cli-mix")
    one, two = wl.cli_cycle(cli, 9, tmp_path / "a"), wl.cli_cycle(cli, 9, tmp_path / "b")
    assert [(op.label, op.problem, op.expected_exit, op.expected_lines) for op in one] == [
        (op.label, op.problem, op.expected_exit, op.expected_lines) for op in two
    ]
    assert sorted(p.read_bytes() for p in (tmp_path / "a").iterdir()) == sorted(
        p.read_bytes() for p in (tmp_path / "b").iterdir()
    )

    for name in ("dense-cold", "cli-mix"):
        digests = {measure(name, tmp_path / str(k), seed=9)[0]["output_sha256"] for k in range(2)}
        assert len(digests) == 1
    traced = measure("dense-cold", tmp_path / "t", trace=True, seed=9)[0]["output_sha256"]
    assert traced in {measure("dense-cold", tmp_path / "u", seed=9)[0]["output_sha256"]}


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        run.percentile(range(99), 90)
    assert run.percentile(range(100), 90) == 89
    assert run.tail(list(range(40))) == {"percentile": 75, "value": 29, "samples": 40}
    assert run.tail(list(range(9)))["percentile"] is None


def test_times_are_scaled_by_the_neighbouring_reference_runs():
    r = reference.REFERENCE_S
    # a host at half speed doubles both the op and the reference run
    assert reference.to_reference([0.5, 2.0], [r, r, 2 * r]) == pytest.approx([0.5, 4 / 3])
    assert reference.to_reference([1.0], [3 * r, 5 * r]) == pytest.approx([0.25])
    assert reference.reference_kernel() == reference.reference_kernel()


def test_corrupted_library_output_is_counted(tmp_path, monkeypatch):
    calls = itertools.count()
    real = wl.solve_heat

    def corrupt_second_call(*args, **kwargs):
        solution = real(*args, **kwargs)
        if next(calls) != 1:
            return solution
        temps = list(solution.temperature.components)
        temps[0] = -temps[0] + 1.0
        return dataclasses.replace(solution, temperature=wl.heatcg.Vector(temps))

    monkeypatch.setattr(wl, "solve_heat", corrupt_second_call)
    facts, result = measure("crs-cold", tmp_path)
    assert result["failed"] == 1 and not result["correct"]
    assert facts["error_rate"] == 1 / result["attempted"]


def test_corrupted_cli_output_is_counted(tmp_path, monkeypatch):
    real = wl.run_cli

    def corrupt_crs_solves(op):
        code, stdout = real(op)
        if "crs" in op.args:
            last = stdout[-2:-1]
            stdout = stdout[:-2] + str((int(last) + 1) % 10).encode() + b"\n"
        return code, stdout

    monkeypatch.setattr(wl, "run_cli", corrupt_crs_solves)
    facts, result = measure("cli-mix", tmp_path)
    # one op of each dense/CRS pair differs from the other
    assert result["failed"] == 2
    assert all("stdout differs" in message for message in facts["failures"])


def test_traced_run_matches_untraced_and_counts_matvecs(tmp_path):
    facts, result = measure("crs-cold", tmp_path, trace=True)
    assert result["correct"]
    assert facts["matvecs_eq_iterations_plus_1"]
    assert facts["trace_coverage"] > 0.9
    metrics = result["metrics"]
    assert metrics["linalg.matvecs"]["value"] == metrics["cgsolver.iterations"]["value"] + 1
    assert (tmp_path / "spans-crs-cold-s5.jsonl").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crs-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
