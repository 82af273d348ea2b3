"""The package namespace resolves its public names on first use (PEP 562)."""

import pytest

import heatcg
from heatcg import cgsolver, heat1d, linalg, numkit, testpyramid

MODULES = (numkit, linalg, cgsolver, heat1d, testpyramid)


def test_an_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        heatcg.nope


@pytest.mark.parametrize("name", ["__wrapped__", "_private"])
def test_unknown_private_names_and_dunders_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(heatcg, name)


def test_star_import_binds_every_module_name():
    namespace = {}
    exec("from heatcg import *", namespace)
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name
    assert namespace["__version__"] == "0.1.0"
