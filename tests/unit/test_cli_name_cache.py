"""cli resolves a library name on first read and stores it in its globals (PEP 562).

cli.__getattr__ imports the module that defines the name and binds the
value in cli's globals, so a second read finds it there and imports
nothing. Each test removes the name first and monkeypatch restores the
module's state afterwards. Every name in cli._LIBRARY resolves this way
to the object its module defines, and an unknown name imports nothing.
"""

import importlib
import types

import pytest

from heatcg import cgsolver, cli


def counted_imports(monkeypatch) -> list[str]:
    """The module names cli.__getattr__ imports from now on, in order."""
    calls = []

    def import_module(name: str, *args):
        calls.append(name)
        return importlib.import_module(name, *args)

    monkeypatch.setattr(cli, "importlib", types.SimpleNamespace(import_module=import_module))
    return calls


def forget(monkeypatch, name: str) -> None:
    monkeypatch.setitem(vars(cli), name, None)  # recorded, so the undo restores the original
    monkeypatch.delitem(vars(cli), name)


def test_a_resolved_name_is_stored_in_the_modules_globals(monkeypatch):
    forget(monkeypatch, "CgConfig")
    calls = counted_imports(monkeypatch)
    value = cli.CgConfig
    assert value is cgsolver.CgConfig
    assert vars(cli)["CgConfig"] is value
    assert calls == ["heatcg.cgsolver"]


def test_a_second_read_imports_nothing(monkeypatch):
    forget(monkeypatch, "CgConfig")
    calls = counted_imports(monkeypatch)
    first = cli.CgConfig
    assert cli.CgConfig is first
    assert calls == ["heatcg.cgsolver"]


@pytest.mark.parametrize("name", sorted(cli._LIBRARY))
def test_each_library_name_resolves_to_its_modules_object(monkeypatch, name):
    """A name listed under the wrong module would fail only when its command runs."""
    forget(monkeypatch, name)
    calls = counted_imports(monkeypatch)
    module = importlib.import_module(f"heatcg.{cli._LIBRARY[name]}")
    assert getattr(cli, name) is getattr(module, name)
    assert vars(cli)[name] is getattr(module, name)
    assert calls == [module.__name__]


def test_an_unknown_name_imports_nothing_and_binds_nothing(monkeypatch):
    calls = counted_imports(monkeypatch)
    with pytest.raises(AttributeError, match="'solve_poisson'"):
        cli.solve_poisson
    assert calls == []
    assert "solve_poisson" not in vars(cli)
