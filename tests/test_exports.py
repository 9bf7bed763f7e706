"""The package's public names resolve.

Every name in a module's ``__all__`` must be defined in the module, and
every name that ``xbartrain/__init__.py`` imports from a submodule must be
in that submodule's ``__all__``, so a deleted class or function cannot
linger in either list.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import xbartrain

MODULES = sorted(info.name for info in pkgutil.iter_modules(xbartrain.__path__))


def reexports():
    """``(submodule, name)`` for every ``from .submodule import name`` in
    the package's ``__init__.py``."""
    tree = ast.parse(Path(xbartrain.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"xbartrain.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_reexports_resolve_and_are_public():
    pairs = reexports()
    assert pairs
    for module, name in pairs:
        source = importlib.import_module(f"xbartrain.{module}")
        assert name in source.__all__, f"{module}.{name}"
        assert getattr(xbartrain, name) is getattr(source, name)
