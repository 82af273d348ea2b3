"""The package's architecture, read from its source with ast.

Four rules the docs state in prose, each checked on every module of
src/heatcg, parsed once:

- the internal import graph, which has no cycle;
- per module, the other modules' private names it reads, so that a new
  cross-module private read shows in a diff of READS below;
- linalg alone reads a matrix's arrays;
- each input type rule has one owner in _checks: a TypeError saying
  "must be an integer", "must be a real number" or "must be a/an X, got
  Y" is raised only in checked_count, checked_real and checked_instance,
  and every other TypeError is listed in OTHER_TYPE_ERRORS with the
  reason it is not a single-type rule.

A private name is one with a single leading underscore. A read of
`receiver._name` belongs to the module the receiver was imported from,
else to the module itself if it binds _name anywhere, else to the one
other module that does.
"""

from __future__ import annotations

import ast
import functools
import re
from graphlib import TopologicalSorter
from pathlib import Path

import heatcg

SRC = Path(heatcg.__file__).parent

# the heatcg modules each module imports at module level, under
# `if TYPE_CHECKING:`, and inside a function
MODULE_LEVEL = {
    "__init__": set(),
    "__main__": {"cli"},
    "_checks": set(),
    "cgsolver": {"_checks", "linalg"},
    "cli": {"_checks", "numkit"},
    "heat1d": {"_checks", "cgsolver", "linalg"},
    "linalg": {"_checks"},
    "numkit": {"_checks"},
    "testpyramid": {"_checks"},
}
TYPE_CHECKING_ONLY = {"cli": {"heat1d"}}
IN_FUNCTION = {"__init__": {"cgsolver", "heat1d", "linalg", "numkit", "testpyramid"}}

# module -> the "owner._name" private names it reads from other modules
READS = {
    "cgsolver": {
        "linalg._array", "linalg._crs_kernel", "linalg._dense_kernel", "linalg._finite",
        "linalg._require_column", "linalg._require_same_length", "linalg._running_sum",
        "linalg._trusted",
    },
    "cli": {"testpyramid._columns", "testpyramid._tally"},  # by name, through cli.__getattr__
    "heat1d": {
        "linalg._array", "linalg._compressed", "linalg._finite", "linalg._quiet",
        "linalg._require_column", "linalg._require_symmetric_tridiagonal", "linalg._trusted",
    },
    "linalg": {"_checks._eq", "_checks._hash"},
}

MATRIX_ARRAYS = {"_values", "_col_indices", "_row_ptr", "_passes", "_grid"}

# each rule's words, in a TypeError's message with every {field} as "{}", and its one owner
RULES = {
    "must be an integer": (r"must be an integer", "_checks.checked_count"),
    "must be a real number": (r"must be a real number", "_checks.checked_real"),
    # one article and one type name; "an integer" is checked_count's rule above
    "must be a/an X, got Y": (r"must be (?:an?|\{\}) (?!integer,)\S+, got", "_checks.checked_instance"),
}

# raise TypeError sites outside the owners: (function, message) -> why it is not a single-type rule
OTHER_TYPE_ERRORS = {
    ("_checks._init", "{}.__init__() got {} argument {}"):
        "a call-signature error, worded as dataclass's generated __init__ words it",
    ("_checks._init", "{}.__init__() {}"):
        "a call-signature error, worded as dataclass's generated __init__ words it",
    ("cgsolver._bind", "operator must be a DenseMatrix, a CrsMatrix, or a callable, got {}"):
        "a union of three kinds, one of them any callable",
    ("cgsolver._bind.apply", "operator {} returned {}, not a Vector"):
        "a callable's result, named by the operator that returned it",
    ("testpyramid.pyramid_report", "records must be TestRecord values, got {}"):
        "a rule on every item of an iterable, whose words a test matches",
}


@functools.cache
def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


@functools.cache
def _nodes(module: str) -> list[ast.AST]:
    return list(ast.walk(_trees()[module]))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _imported(node: ast.AST) -> dict[str, str]:
    """The names an import binds to the heatcg module each comes from; {} for any other node."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module:
            return {alias.asname or alias.name: node.module for alias in node.names}
        return {alias.asname or alias.name: alias.name for alias in node.names}
    return {}


def _imports(tree: ast.Module) -> dict[str, set[str]]:
    """The modules tree imports, keyed by where: "module", "type_checking" or "function"."""
    found: dict[str, set[str]] = {"module": set(), "type_checking": set(), "function": set()}

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            found[where].update(_imported(child).values())
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, "function")
            elif (isinstance(child, ast.If) and isinstance(child.test, ast.Name)
                  and child.test.id == "TYPE_CHECKING"):
                visit(child, "type_checking")
            else:
                visit(child, where)

    visit(tree, "module")
    return found


@functools.cache
def _bound(module: str) -> set[str]:
    """Every name module binds: defs, classes, parameters, assigned names and attributes."""
    names = set()
    for node in _nodes(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _private_reads(module: str) -> set[str]:
    imported = {}
    for node in _nodes(module):
        imported.update(_imported(node))
    reads = {f"{owner}.{name}" for name, owner in imported.items()
             if _private(name) and owner != name}
    for node in _nodes(module):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        receiver = node.value.id if isinstance(node.value, ast.Name) else None
        if receiver in imported:
            reads.add(f"{imported[receiver]}.{node.attr}")
        elif node.attr not in _bound(module):
            owners = [other for other in _trees() if other != module and node.attr in _bound(other)]
            reads.add(f"{'|'.join(owners) or '?'}.{node.attr}")
    return reads


def _text(node: ast.expr) -> str | None:
    """A message's text with each {field} as "{}", or None if it is not a string literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def _raises() -> list[tuple[str, str, str]]:
    """(exception, enclosing def as module.f.g, message or None) of each raise E(...)."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            exc = child.exc if isinstance(child, ast.Raise) else None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                found.append((exc.func.id, where, _text(exc.args[0]) if exc.args else None))
            visit(child, where)

    for module, tree in _trees().items():
        visit(tree, module)
    return found


def test_every_module_is_read():
    assert set(_trees()) == set(MODULE_LEVEL)


def test_the_import_graph_is_the_pinned_one():
    found = {module: _imports(tree) for module, tree in _trees().items()}
    assert {m: f["module"] for m, f in found.items()} == MODULE_LEVEL
    assert {m: f["type_checking"] for m, f in found.items() if f["type_checking"]} == TYPE_CHECKING_ONLY
    assert {m: f["function"] for m, f in found.items() if f["function"]} == IN_FUNCTION


def test_the_import_graph_has_no_cycle():
    graph = {module: set(targets) for module, targets in MODULE_LEVEL.items()}
    for extra in (TYPE_CHECKING_ONLY, IN_FUNCTION):
        for module, targets in extra.items():
            graph[module] |= targets
    order = list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert set(order) == set(graph)


def test_each_module_reads_only_the_pinned_private_names_of_others():
    found = {module: _private_reads(module) for module in _trees()}
    assert {module: reads for module, reads in found.items() if reads} == READS


def test_linalg_alone_reads_a_matrix_arrays():
    readers = {module for module in _trees() for node in _nodes(module)
               if isinstance(node, ast.Attribute) and node.attr in MATRIX_ARRAYS}
    assert readers == {"linalg"}


def test_each_input_rule_is_raised_by_its_owner_alone():
    raises = _raises()
    for rule, (pattern, owner) in RULES.items():
        raisers = {where for name, where, text in raises
                   if name == "TypeError" and re.search(pattern, text or "")}
        assert raisers == {owner}, rule


def test_every_other_type_error_is_listed_with_its_reason():
    owners = {owner for _, owner in RULES.values()}
    others = {(where, text) for name, where, text in _raises()
              if name == "TypeError" and where not in owners}
    assert others == set(OTHER_TYPE_ERRORS)
