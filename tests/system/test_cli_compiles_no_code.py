"""A CLI run compiles no Python code: no `compile` audit event fires.

dataclass writes the methods of each class it decorates as source text
and compiles it when the module loads; heatcg's value classes share
methods written once instead (_checks.frozen). A fresh interpreter imports
numpy, argparse and dataclasses first, then installs an audit hook and
runs cli.main, which loads heatcg and runs one command; the hook must see
no `compile` event. The run goes twice, with bytecode writing allowed, so
that the second finds every module's bytecode cached and a source file
that changed since it was cached is not counted as a compile.
"""

import json
import os
import subprocess
import sys

import pytest

MANIFEST = "layer,name,duration_ms,status\nunit,a,1.0,ok\nintegration,b,2.0,ok\nsystem,c,3.0,ok\n"
COUNT = """
import contextlib, io, json, sys
import argparse, dataclasses, numpy
events = []
sys.addaudithook(lambda event, args: events.append(str(args[1])) if event == "compile" else None)
from heatcg import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(json.dumps([status, events]))
"""


def compiled_while_running(argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", COUNT, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", ["solve", "pyramid"])
def test_a_cli_run_fires_no_compile_event(command, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST, encoding="utf-8")
    argv = ["solve", "--cells", "3"] if command == "solve" else ["pyramid", str(manifest)]
    status, compiled = compiled_while_running(argv)
    assert status == 0
    assert compiled == []
