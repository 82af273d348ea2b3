"""The README documents the solve options the CLI actually accepts."""

import re
from pathlib import Path

from heatcg.cli import build_parser

README = Path(__file__).resolve().parents[2] / "README.md"


def _options_paragraph() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("Options:")
    return text[start : text.index("\n\n", start)]


def test_every_documented_solve_flag_is_accepted():
    flags = re.findall(r"--[a-z][a-z-]*", _options_paragraph())
    assert len(flags) >= 8
    for flag in flags:
        value = "crs" if flag == "--storage" else "1"
        args = build_parser().parse_args(["solve", flag, value])
        # an abbreviation would parse too; the full name must be the option itself
        assert hasattr(args, flag[2:].replace("-", "_")), flag
