"""Compute-node model: CPU cores, compute-cost accounting, rails.

The :class:`CpuSet` reproduces the paper's polling-thread contention
(§VI-C, Figure 6 HPC-IB): a UNR polling thread that shares cores with
the application slows computation down, while reserving dedicated cores
removes the interference at the price of fewer compute cores.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..sim import Environment

__all__ = ["CpuSet", "Node"]


class CpuSet:
    """Core accounting for one node.

    Computation is expressed as *wall seconds assuming `threads` dedicated
    cores*.  The effective duration is scaled by the oversubscription
    factor ``(threads + polling_load) / available_cores`` whenever demand
    exceeds the cores left after reservations.

    ``polling_load`` is the core-equivalent demand of polling threads
    that were *not* given a reserved core (1.0 for a busy-poll thread,
    ``duty`` < 1 for interval polling).
    """

    __slots__ = ("env", "n_cores", "reserved", "polling_load", "busy_seconds")

    def __init__(self, env: Environment, n_cores: int):
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.env = env
        self.n_cores = n_cores
        self.reserved = 0
        self.polling_load = 0.0
        self.busy_seconds = 0.0  # accumulated core-seconds of compute

    @property
    def available(self) -> int:
        """Cores usable by application threads."""
        return max(self.n_cores - self.reserved, 0)

    def reserve(self, n: int) -> None:
        """Dedicate ``n`` cores (e.g. to the UNR polling thread)."""
        if n < 0 or self.reserved + n >= self.n_cores:
            raise ValueError(
                f"cannot reserve {n} of {self.n_cores} cores "
                f"({self.reserved} already reserved)"
            )
        self.reserved += n

    def add_polling_load(self, duty: float) -> None:
        """Register an unreserved polling thread consuming ``duty`` cores."""
        if duty < 0:
            raise ValueError("duty must be >= 0")
        self.polling_load += duty

    def remove_polling_load(self, duty: float) -> None:
        self.polling_load = max(0.0, self.polling_load - duty)

    def slowdown(self, threads: int) -> float:
        """Oversubscription factor for a computation using ``threads``."""
        avail = max(self.available, 1)
        demand = threads + self.polling_load
        return max(1.0, demand / avail)

    def compute(self, seconds: float, threads: int = 1):
        """Generator: occupy ``threads`` cores for ``seconds`` of work."""
        if seconds < 0:
            raise ValueError("negative compute time")
        wall = seconds * self.slowdown(threads)
        self.busy_seconds += seconds * threads
        yield self.env.timeout(wall)
        return wall


class Node:
    """One node: an index, a :class:`CpuSet` and one or more NIC rails."""

    __slots__ = (
        "env", "index", "spec", "cpu", "_rng", "nics", "_nic_spec",
        "fabric", "crashed", "_loopback_free",
    )

    def __init__(self, env: Environment, index: int, spec, fabric, seed: int):
        from .nic import Nic  # local import to avoid cycle

        self.env = env
        self.index = index
        self.spec = spec
        self.cpu = CpuSet(env, spec.cores)
        self._rng = np.random.default_rng(seed)
        self.nics: List[Nic] = []
        self._nic_spec = None  # filled by Cluster
        self.fabric = fabric
        #: fail-stop flag set by a :class:`~repro.netsim.faults.NodeCrash`:
        #: every rail is dead and even the ordered (control/fallback) lane
        #: drops traffic to and from this node.
        self.crashed = False
        #: busy-until horizon of the intra-node loopback memcpy path
        #: (shared across rails: loopback bypasses the NIC ports).
        self._loopback_free = 0.0

    def _attach_nics(self, nic_spec, count: int) -> None:
        """Create ``count`` rails.  NIC RNGs derive from this node's own
        stream, so the cluster-level materialization order never changes
        the draws."""
        from .nic import Nic

        self._nic_spec = nic_spec
        for i in range(count):
            rng = np.random.default_rng(self._rng.integers(0, 2**63 - 1))
            self.nics.append(Nic(self.env, self, i, nic_spec, self.fabric, rng))

    def nic(self, rail: int = 0):
        return self.nics[rail % len(self.nics)]

    @property
    def n_rails(self) -> int:
        return len(self.nics)

    def __repr__(self) -> str:
        return f"<Node {self.index} rails={len(self.nics)} cores={self.spec.cores}>"
