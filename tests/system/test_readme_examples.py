"""Every `$ heatcg ...` example in the README prints what the README shows.

Each ```text block whose first line starts with `$ heatcg` is one example:
the command is run through `python -m heatcg` in a fresh directory, and
its stdout must equal the rest of the block byte for byte, with exit 0.
The README's one ```csv block is the manifest its pyramid example reads;
it is written to `manifest.csv` in that directory first. The verify
examples print L2 errors that depend on every bit of the solve.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import heatcg

README = Path(__file__).resolve().parents[2] / "README.md"
BLOCK = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
PROMPT = "$ heatcg "


def blocks(kind: str) -> list[str]:
    return [body for info, body in BLOCK.findall(README.read_text(encoding="utf-8")) if info == kind]


EXAMPLES = [body for body in blocks("text") if body.startswith(PROMPT)]


def test_the_readme_has_its_four_examples_and_one_manifest():
    commands = [body.split("\n", 1)[0] for body in EXAMPLES]
    assert [command.split()[2] for command in commands] == ["solve", "verify", "verify", "pyramid"]
    assert len(blocks("csv")) == 1


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda body: body.split("\n", 1)[0][2:])
def test_the_example_prints_the_block(example, tmp_path):
    command, shown = example.split("\n", 1)
    (tmp_path / "manifest.csv").write_text(blocks("csv")[0], encoding="utf-8")
    source = str(Path(heatcg.__file__).resolve().parents[1])  # the tree under test, from any cwd
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", *shlex.split(command[len(PROMPT):])],
        capture_output=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == shown.encode("utf-8"), command
