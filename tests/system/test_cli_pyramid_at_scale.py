"""One `python -m heatcg pyramid` process on a 20,000-row manifest.

The test writes a seeded manifest with the csv module and works out the
report lines and the exit code with collections.Counter, without heatcg,
then checks that the process prints exactly those lines and exits so.
"""

import csv
import random
import subprocess
import sys
from collections import Counter

import pytest

LAYERS = ["unit", "integration", "system"]
STATUSES = ["ok", "expected_fail", "fail", "unexpected_pass", "skipped", "timeout"]
BUDGET_MS = 100.0


def write_manifest(path, seed: int, layer_weights) -> tuple[int, list[str]]:
    """Write 20,000 seeded rows; return the exit code and stdout lines they earn."""
    rng = random.Random(seed)
    rows, slow = [], []
    for k in range(20_000):
        (layer,) = rng.choices(LAYERS, layer_weights)
        (status,) = rng.choices(STATUSES, [94, 2, 1, 1, 1, 1])
        duration = f"{rng.uniform(0.0, 100.2):.3f}"
        name = f'case {k}, "seeded"'
        if layer == "unit" and float(duration) > BUDGET_MS:
            slow.append(name)
        rows.append((layer, name, duration, status))
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["layer", "name", "duration_ms", "status"])
        writer.writerows(rows)

    layers = Counter(row[0] for row in rows)
    statuses = Counter(row[3] for row in rows)
    shape = layers["unit"] >= layers["integration"] >= layers["system"]
    lines = [f"{s.replace('_', ' ').title()}: {statuses[s]}" for s in STATUSES]
    lines += [f"{layer}: {layers[layer]}" for layer in LAYERS]
    lines += [f"slow unit test: {name}" for name in slow]
    lines.append(f"pyramid: {'OK' if shape else 'VIOLATED'}")
    bad = statuses["fail"] + statuses["timeout"]
    return (0 if not (bad or slow) else 1) if shape else 3, lines


@pytest.mark.parametrize("seed, layer_weights", [(1, (6, 3, 1)), (2, (3, 5, 2))],
                         ids=["pyramid", "inverted"])
def test_a_20000_row_audit_prints_the_counted_report(seed, layer_weights, tmp_path):
    path = tmp_path / "manifest.csv"
    code, lines = write_manifest(path, seed, layer_weights)
    assert any(line.startswith("slow unit test: ") for line in lines)
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", "pyramid", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.splitlines() == lines
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
