"""An option a subcommand does not take is reported with that subcommand's usage."""

import subprocess
import sys

import pytest


@pytest.mark.parametrize(
    "args, command, unknown",
    [
        (["verify", "--cells", "3", "--out"], "verify", "--out"),
        (["solve", "--cells", "3", "--bogus"], "solve", "--bogus"),
        (["pyramid", "missing.csv", "extra"], "pyramid", "extra"),
    ],
)
def test_unknown_options_show_the_subcommand_usage(tmp_path, args, command, unknown):
    target = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "heatcg", *args, str(target)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"usage: heatcg {command} ")
    assert proc.stderr.endswith(
        f"heatcg {command}: error: unrecognized arguments: {unknown} {target}\n"
    )
    assert not target.exists()
