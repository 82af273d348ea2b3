"""Every floating-point reduction src/heatcg may call, read from its source with ast.

linalg's docstring states the summation-order contract: a float sum runs
only where its order is pinned, and tests pin that order against a
pure-Python loop. This file holds the code to the contract. Each
reduction site is listed in ALLOWED, keyed by the function it sits in,
with the reason its order is pinned or cannot matter:

- np.vdot, bound once as _vdot and called only by _running_sum;
- np.add.reduce, only over the grid product's terms buffer;
- the integer-only np.cumsum of CrsMatrix._compressed's row counts;
- the one-entry-per-bin np.bincount of _require_symmetric_tridiagonal.

The forms whose order numpy leaves open appear nowhere in src/heatcg:
einsum (under any name), np.sum, np.dot, np.matmul, @ and a .sum(
method. A reduction imported under another name (from numpy import sum
as total) counts as a site of its own name.

Each check also runs on a one-module source that breaks the contract,
so a check that could never fire fails here.
"""

from __future__ import annotations

import ast
import functools
import io
import tokenize
from pathlib import Path

import pytest

import heatcg

SRC = Path(heatcg.__file__).parent

# the last part of a name that, called on float arrays, sums in some order of numpy's choosing
REDUCING = {
    "accumulate", "average", "bincount", "cumprod", "cumsum", "dot", "einsum", "fsum",
    "inner", "matmul", "mean", "nansum", "prod", "reduce", "reduceat", "std", "sum",
    "tensordot", "trace", "var", "vdot", "vecdot",
}

# (where, the name as written) -> why the order of that reduction is pinned or cannot matter
ALLOWED = {
    ("linalg", "np.vdot"):
        "bound once as _vdot, past numpy's dispatch; on a zero-stride operand it runs "
        "its plain left-to-right C loop from +0.0",
    ("linalg._grid_kernel.product", "np.add.reduce"):
        "over axis 0 of the C-contiguous terms buffer with two or more lanes: each column "
        "is added into every row's lane in turn",
    ("linalg.CrsMatrix._compressed", "np.cumsum"):
        "integer row counts into row offsets: exact in any order",
    ("linalg._require_symmetric_tridiagonal", "np.bincount"):
        "at most one entry per bin, so each bin is 0.0 + v, exact",
}


@functools.cache
def _sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def _sites_of(sources: dict[str, str]) -> tuple[tuple[str, ast.AST], ...]:
    """Every node of every module with the dotted scope it sits in, "module.Class.function"."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            found.append((scope, child))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for module, source in sources.items():
        visit(ast.parse(source, module), module)
    return tuple(found)


@functools.cache
def _sites() -> tuple[tuple[str, ast.AST], ...]:
    return _sites_of(_sources())


def _reductions(sites) -> set[tuple[str, str]]:
    # heatcg's own function names, such as linalg.dot, a running sum: not numpy's reductions
    own = {node.name for _, node in sites if isinstance(node, ast.FunctionDef)}
    found = set()
    for scope, node in sites:
        if isinstance(node, ast.Attribute) and node.attr in REDUCING:
            found.add((scope, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in REDUCING and node.id not in own:
            found.add((scope, node.id))
        elif (isinstance(node, ast.alias) and node.name.rpartition(".")[2] in REDUCING
              and node.name not in own):  # from numpy import sum as total
            found.add((scope, node.name))
    return found


def _vdot_reads(sites) -> set[str]:
    return {scope for scope, node in sites
            if isinstance(node, ast.Name) and node.id == "_vdot" and isinstance(node.ctx, ast.Load)}


def test_every_reduction_site_is_listed_with_its_reason():
    assert _reductions(_sites()) == set(ALLOWED)


def test_vdot_runs_only_through_the_running_sum():
    assert _vdot_reads(_sites()) == {"linalg._running_sum"}


def _matmul(node: ast.AST) -> bool:
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)


def _named(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.alias):  # both: from numpy import einsum as contract
        return f"{node.name} {node.asname or ''}"
    if isinstance(node, ast.arg):
        return node.arg
    return ""


def _spelt(text: str):
    return lambda node: isinstance(node, ast.Attribute) and ast.unparse(node) == text


BANNED = {
    "einsum": lambda node: "einsum" in _named(node),
    **{text: _spelt(text) for text in ("np.sum", "np.dot", "np.matmul")},
    "@": _matmul,
    ".sum(": lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "sum"),
}


def _banned(form: str, sites) -> list[str]:
    return [f"{scope}: {ast.unparse(node)}" for scope, node in sites if BANNED[form](node)]


@pytest.mark.parametrize("form", sorted(BANNED))
def test_a_banned_form_appears_nowhere(form):
    assert _banned(form, _sites()) == []


def _einsum_mentions(sources: dict[str, str]) -> list[str]:
    """Each string but a docstring, and each comment, that names einsum."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        found += [f"{module}:{node.lineno} string" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "einsum" in node.value and id(node) not in docstrings]
        found += [f"{module}:{token.start[0]} comment"
                  for token in tokenize.generate_tokens(io.StringIO(source).readline)
                  if token.type == tokenize.COMMENT and "einsum" in token.string]
    return found


def test_einsum_is_named_only_in_docstrings():
    """No string a call could resolve (getattr(np, "einsum")) and no comment names it."""
    assert _einsum_mentions(_sources()) == []


# The checks above must fire: each is run on a one-module source that breaks the contract.

MODULE = '''"""A module whose docstring may name einsum."""
import numpy as np


def kernel(a, b):
    {}
'''


@pytest.mark.parametrize("form, line", [
    ("einsum", 'return np.einsum("ij,j->i", a, b)'),
    ("einsum", "from numpy import einsum as contract"),
    ("einsum", "return np.core.einsumfunc.c_einsum(a, b)"),
    ("np.sum", "return np.sum(a)"),
    ("np.dot", "return np.dot(a, b)"),
    ("np.matmul", "return np.matmul(a, b)"),
    ("@", "return a @ b"),
    ("@", "a @= b"),
    (".sum(", "return a.sum()"),
], ids=["np.einsum", "einsum-import-alias", "c_einsum", "np.sum", "np.dot", "np.matmul", "@",
        "@=", ".sum("])
def test_a_banned_form_is_caught(form, line):
    sites = _sites_of({"fake": MODULE.format(line)})
    assert len(_banned(form, sites)) >= 1


@pytest.mark.parametrize("line, site", [
    ("return np.add.reduce(a, 0)", ("fake.kernel", "np.add.reduce")),
    ("return np.cumsum(a)", ("fake.kernel", "np.cumsum")),
    ("return math.fsum(a)", ("fake.kernel", "math.fsum")),
    ("return sum(a)", ("fake.kernel", "sum")),
    ("from numpy import prod as total", ("fake.kernel", "prod")),
    ("return a.mean()", ("fake.kernel", "a.mean")),
], ids=["add.reduce", "cumsum", "fsum", "builtin-sum", "prod-import-alias", "mean-method"])
def test_an_unlisted_reduction_is_caught_where_it_sits(line, site):
    assert _reductions(_sites_of({"fake": MODULE.format(line)})) == {site}


def test_an_own_function_named_like_a_reduction_is_not_one():
    source = MODULE.format("return dot(a, b)") + "\n\ndef dot(a, b):\n    return a\n"
    assert _reductions(_sites_of({"fake": source})) == set()


def test_a_read_of_vdot_outside_the_running_sum_is_caught():
    source = MODULE.format("return _vdot(a, b)") + "\n\ndef _running_sum(t):\n    return _vdot(t, t)\n"
    assert _vdot_reads(_sites_of({"fake": source})) == {"fake.kernel", "fake._running_sum"}


@pytest.mark.parametrize("line", [
    'return getattr(np, "einsum")(a, b)',
    "return a  # faster by einsum",
], ids=["string", "comment"])
def test_einsum_outside_a_docstring_is_caught(line):
    assert len(_einsum_mentions({"fake": MODULE.format(line)})) == 1
