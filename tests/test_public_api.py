"""The public names: every ``__all__`` entry resolves and ``cpdlab`` re-exports it."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cpdlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(cpdlab.__path__))
# The modules ``cpdlab/__init__.py`` re-exports; the CLI stays out of the package.
REEXPORTED = [module for module in MODULES if module != "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"cpdlab.{module}")
    assert mod.__all__, f"cpdlab.{module} has an empty __all__"
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate __all__ entries"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", REEXPORTED)
def test_package_reexports_every_public_name(module):
    mod, missing = importlib.import_module(f"cpdlab.{module}"), object()
    assert [name for name in mod.__all__
            if getattr(cpdlab, name, missing) is not getattr(mod, name)] == []


def test_package_import_leaves_the_cli_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, cpdlab; print('cpdlab.cli' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.split() == ["False"]
