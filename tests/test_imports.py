"""API-surface sanity: every public module imports and exports cleanly."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

#: every module of the package, found by walking it, so a new or deleted
#: module needs no edit here; ``repro.__main__`` runs the CLI on import.
MODULES = ["repro"] + [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if m.name != "repro.__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} is missing a module docstring"


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for sym in getattr(mod, "__all__", []):
        assert hasattr(mod, sym), f"{name}.__all__ lists missing {sym!r}"


def test_import_repro_leaves_the_claims_ledger_unloaded():
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = "import sys, repro; assert 'repro.bench.paper' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_version():
    import repro

    assert repro.__version__
