"""The public names: every ``__all__`` entry resolves and every package export imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cpdlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(cpdlab.__path__))


def _package_exports():
    """``(module, name)`` for every name ``cpdlab/__init__.py`` imports from a submodule."""
    tree = ast.parse(Path(cpdlab.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"cpdlab.{module}")
    assert mod.__all__, f"cpdlab.{module} has an empty __all__"
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate __all__ entries"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_import():
    exports = _package_exports()
    assert exports
    for module, name in exports:
        mod = importlib.import_module(f"cpdlab.{module}")
        assert name in mod.__all__, f"cpdlab exports {name}, not in cpdlab.{module}.__all__"
        assert getattr(cpdlab, name) is getattr(mod, name)
