"""API-surface sanity: every public module imports and exports cleanly."""

import importlib
import os
import subprocess
import sys

import pytest

MODULES = [
    "repro",
    "repro.sim",
    "repro.sim.core",
    "repro.sim.resources",
    "repro.netsim",
    "repro.netsim.spec",
    "repro.netsim.nic",
    "repro.netsim.node",
    "repro.netsim.cluster",
    "repro.netsim.trace",
    "repro.interconnect",
    "repro.interconnect.capabilities",
    "repro.interconnect.channel",
    "repro.interconnect.adapters",
    "repro.interconnect.fallback",
    "repro.core",
    "repro.core.signal",
    "repro.core.levels",
    "repro.core.memory",
    "repro.core.transport",
    "repro.core.polling",
    "repro.core.api",
    "repro.core.plan",
    "repro.core.convert",
    "repro.core.errors",
    "repro.replication",
    "repro.mpi",
    "repro.mpi.world",
    "repro.mpi.collectives",
    "repro.mpi.rma",
    "repro.mpi.config",
    "repro.powerllel",
    "repro.powerllel.decomp",
    "repro.powerllel.numerics",
    "repro.powerllel.tridiag",
    "repro.powerllel.costs",
    "repro.powerllel.state",
    "repro.powerllel.backend_mpi",
    "repro.powerllel.backend_unr",
    "repro.powerllel.app",
    "repro.platforms",
    "repro.collectives",
    "repro.bench",
    "repro.bench.paper",
    "repro.cli",
    "repro.runtime",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} is missing a module docstring"


@pytest.mark.parametrize("name", [m for m in MODULES if "." not in m or True])
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
