"""A CLI process runs without the cyclic collector; importing heatcg.cli leaves it on.

Each case runs a fresh interpreter, since the entry point sets up the
collector once, when it is imported.
"""

import subprocess
import sys

import pytest

# run the CLI on the interpreter's own argv; the last line reports the result
ENTRY = """
import gc, heatcg.__main__ as entry
try:
    code = entry.main()
except SystemExit as exc:
    code = f"exit {exc.code}"
print(code, gc.isenabled(), gc.get_freeze_count() > 0)
"""
LIBRARY = """
import gc
from heatcg import cli
try:
    code = cli.main()
except SystemExit as exc:
    code = f"exit {exc.code}"
print(code, gc.isenabled(), gc.get_freeze_count() > 0)
"""
MANIFEST = "layer,name,duration_ms,status\nunit,a,1.0,ok\nsystem,b,2.0,ok\nsystem,c,3.0,ok\n"


def run_python(code, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_entry_point_turns_the_collector_off_before_numpy_loads():
    code = """
import gc, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(gc.isenabled())
sys.meta_path.insert(0, Watch())
import heatcg.__main__
print(gc.isenabled(), seen)
"""
    assert run_python(code) == "False [False]\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "--cells", "3"], "0"),
        (["solve", "--cells", "10", "--max-iters", "1"], "1"),
        (["solve", "--cells", "2", "--t-right", "1e200"], "2"),
        (["solve", "--bogus"], "exit 2"),
        (["pyramid", "MANIFEST"], "3"),
    ],
    ids=["ok", "not-converged", "overflow", "bad-option", "pyramid-violated"],
)
def test_main_returns_the_cli_code_and_freezes_the_heap(argv, expected, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST, encoding="utf-8")
    argv = [str(manifest) if arg == "MANIFEST" else arg for arg in argv]
    entry = run_python(ENTRY, *argv).splitlines()[-1]
    library = run_python(LIBRARY, *argv).splitlines()[-1]
    assert entry == f"{expected} False True"
    assert library == f"{expected} True False"
