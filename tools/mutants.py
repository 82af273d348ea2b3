"""Statement-deletion mutants of heatcg: which deleted statement does the suite miss?

Each mutant replaces one statement of a module with `pass` and runs the
layered suite on it:

    python -m pytest -x -q -p no:cacheprovider tests/unit tests/integration tests/system

A mutant is killed when that run fails or outlasts TIMEOUT seconds, and
survives when it passes. Docstrings, imports, def and class statements and
__all__ are never replaced, nor is `pass` itself. Mutants run one at a
time, each in the same copy of the repository made in a temporary
directory: the checkout is never edited. Run from the repository root:

    python tools/mutants.py [MODULE ...]

MODULE is a path such as src/heatcg/cli.py; the default is every module of
src/heatcg. One JSON line per mutant, then the kill count per module and
the survivors.
"""

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUITE = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "tests/unit", "tests/integration", "tests/system"]
TIMEOUT = 300.0  # seconds one suite run may take
_KEPT = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
         ast.Pass)


def _docstring(node: ast.AST, body: list) -> bool:
    return (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and bool(body) and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str))


def _names_all(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def statements(source: str) -> list[ast.stmt]:
    """The statements of source that a mutant may replace, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if not isinstance(body, list):
                continue
            for k, stmt in enumerate(body):
                if not isinstance(stmt, ast.stmt) or isinstance(stmt, _KEPT):
                    continue
                if (k == 0 and field == "body" and _docstring(node, body)) or _names_all(stmt):
                    continue
                found.append(stmt)
    return sorted(found, key=lambda s: (s.lineno, s.col_offset))


def mutate(source: str, stmt: ast.stmt) -> str:
    """source with stmt's text replaced by `pass`."""
    raw = source.encode("utf-8")  # col offsets count UTF-8 bytes
    lines = raw.splitlines(keepends=True)
    start = sum(map(len, lines[:stmt.lineno - 1])) + stmt.col_offset
    end = sum(map(len, lines[:stmt.end_lineno - 1])) + stmt.end_col_offset
    return (raw[:start] + b"pass" + raw[end:]).decode("utf-8")


def _run(tree: Path) -> tuple[str, float]:
    """'killed', 'timeout' or 'survived', and the seconds the suite took."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(SUITE, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    finally:  # after a timeout or an interrupt: the suite and every process it started
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return ("survived" if code == 0 else "timeout" if code is None else "killed",
            round(time.perf_counter() - start, 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE",
                        help="module paths (default: every module of src/heatcg)")
    args = parser.parse_args(argv)
    modules = args.modules or sorted(str(p.relative_to(ROOT))
                                     for p in (ROOT / "src" / "heatcg").glob("*.py"))
    sources = {module: (ROOT / module).read_text(encoding="utf-8") for module in modules}
    mutants = [(module, stmt) for module in modules for stmt in statements(sources[module])]
    counts = {module: [0, 0] for module in modules}
    survivors = []
    with tempfile.TemporaryDirectory(prefix="heatcg-mutants-") as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis"))
        for module, stmt in mutants:
            source = sources[module]
            mutant = mutate(source, stmt)
            compile(mutant, module, "exec")  # a mutant that cannot load would count as killed
            (tree / module).write_text(mutant, encoding="utf-8")
            outcome, seconds = _run(tree)
            (tree / module).write_text(source, encoding="utf-8")
            text = ast.get_source_segment(source, stmt).splitlines()[0]
            print(json.dumps({"module": module, "line": stmt.lineno, "statement": text,
                              "outcome": outcome, "seconds": seconds}), flush=True)
            counts[module][0] += outcome != "survived"
            counts[module][1] += 1
            if outcome == "survived":
                survivors.append(f"{module}:{stmt.lineno}: {text}")
    for module, (killed, total) in counts.items():
        print(f"{module}: {killed}/{total} killed")
    print(f"total: {sum(c[0] for c in counts.values())}/{len(mutants)} killed")
    print(f"survivors: {len(survivors)}")
    print("".join(f"  {line}\n" for line in survivors), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
