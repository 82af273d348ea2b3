"""tools/src_lines.py counts all lines and, among them, code lines.

Code is every line holding a token outside comments and docstrings: the
blank lines, a comment-only line and the module and function docstrings
do not count, and each line of a call spread over several lines does.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "src_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math


def f(x):
    """Function docstring."""
    # a comment-only line
    return math.hypot(
        x,
        1.0,
    )  # a trailing comment
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_gives_total_and_code_lines():
    # code: import, def, and the four lines of the return statement
    assert _tool().count(SOURCE) == (13, 6)


def test_a_string_that_is_not_a_docstring_is_code():
    assert _tool().count('x = 1\n"""not a docstring"""\n\n') == (3, 2)
