"""A CLI run loads only its own command's modules.

`pyramid` and the top-level help load no numpy and none of the solver's
modules; `solve` and `verify` load no auditor; `import heatcg.numkit` loads
no numpy. Each case runs a fresh interpreter, since a module stays in
sys.modules once loaded.
"""

import subprocess
import sys

import pytest

SOLVER = ["numpy", "heatcg.linalg", "heatcg.cgsolver", "heatcg.heat1d"]
MANIFEST = "layer,name,duration_ms,status\nunit,a,1.0,ok\nintegration,b,2.0,ok\nsystem,c,3.0,ok\n"

# run the entry point on argv[2:], then print its exit code and which of the
# comma-separated modules in argv[1] loaded
RUN = """
import sys, heatcg.__main__ as entry
try:
    code = entry.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
print(code, [name for name in sys.argv[1].split(",") if name in sys.modules])
"""


def loaded(code, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, watched",
    [
        (["pyramid", "MANIFEST"], SOLVER),
        (["--help"], SOLVER),
        (["solve", "--cells", "3"], ["heatcg.testpyramid"]),
        (["verify", "--cells", "3", "--storage", "crs"], ["heatcg.testpyramid"]),
    ],
    ids=["pyramid", "help", "solve", "verify"],
)
def test_a_command_loads_none_of_the_modules_it_does_not_use(argv, watched, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST, encoding="utf-8")
    argv = [str(manifest) if arg == "MANIFEST" else arg for arg in argv]
    assert loaded(RUN, ",".join(watched), *argv) == "0 []"


def test_importing_numkit_loads_no_numpy():
    assert loaded("import sys, heatcg.numkit; print('numpy' in sys.modules)") == "False"
