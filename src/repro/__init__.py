"""Reproduction of "UNR: Unified Notifiable RMA Library for HPC" (SC 2024).

Package map (DESIGN.md has the full inventory):

* :mod:`repro.sim` — deterministic discrete-event simulation kernel.
* :mod:`repro.netsim` — simulated cluster: nodes, multi-rail NICs with
  completion queues and custom bits, fabric timing, CPU cores.
* :mod:`repro.interconnect` — Notifiable RMA Primitives adapters
  (GLEX/Verbs/uTofu/uGNI/PAMI/Portals + MPI fallback), Table II.
* :mod:`repro.core` — **UNR itself**: MMAS signals, BLK handles,
  support levels, polling engine, notified PUT/GET, plans, converters.
* :mod:`repro.replication` — replica worlds: a node crash stops one
  world, wrapped around ``core`` from outside (docs/resilience.md).
* :mod:`repro.mpi` — simulated MPI baseline (p2p, collectives, RMA
  windows with Fence/PSCW/Lock synchronization).
* :mod:`repro.powerllel` — the driving application: pencil-decomposed
  pressure-Poisson CFD pipeline in MPI and UNR backends.
* :mod:`repro.platforms` — the four Table III systems, calibrated.
* :mod:`repro.bench` — drivers regenerating every table and figure.
* :mod:`repro.obs` — observability: event/span/metric recorder over
  simulated time, Perfetto export, host-time profiler
  (docs/observability.md).
"""

from .core import (
    Blk,
    MemoryRegion,
    PollingConfig,
    RmaPlan,
    Signal,
    Unr,
    UnrEndpoint,
    UnrSyncError,
    UnrSyncWarning,
)
from .netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from .obs import Recorder
from .platforms import PLATFORMS, get_platform, make_job
from .runtime import Job, RankContext, run_job
from .sim import Environment

__version__ = "1.0.0"

__all__ = [
    "Blk",
    "Cluster",
    "ClusterSpec",
    "Environment",
    "FabricSpec",
    "Job",
    "MemoryRegion",
    "NicSpec",
    "NodeSpec",
    "PLATFORMS",
    "PollingConfig",
    "RankContext",
    "Recorder",
    "RmaPlan",
    "Signal",
    "Unr",
    "UnrEndpoint",
    "UnrSyncError",
    "UnrSyncWarning",
    "__version__",
    "get_platform",
    "make_job",
    "run_job",
]
