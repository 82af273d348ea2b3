"""Count the lines of heatcg's modules: all of them, and the code among them.

A code line holds at least one token that is not part of a comment or of a
docstring (the string that opens a module, class or function body); blank
lines are not code. Run from the repository root:

    python tools/src_lines.py [DIRECTORY]

DIRECTORY defaults to src/heatcg. One line per module, then the totals.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED and token.start[0] not in docstrings:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    directory = Path(argv[1] if len(argv) > 1 else "src/heatcg")
    total = code = 0
    for path in sorted(directory.glob("*.py")):
        lines, code_lines = count(path.read_text(encoding="utf-8"))
        total, code = total + lines, code + code_lines
        print(f"{path.name:20} {lines:5} lines {code_lines:5} code")
    print(f"{'total':20} {total:5} lines {code:5} code")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
