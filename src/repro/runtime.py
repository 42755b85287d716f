"""Job/rank runtime: maps MPI-style ranks onto simulated nodes.

A :class:`Job` places ``ranks_per_node`` ranks on each node of a
:class:`~repro.netsim.Cluster` (block placement, like typical MPI
launchers).  Rank programs are generator functions ``fn(ctx, ...)``
receiving a :class:`RankContext`; :func:`run_job` spawns one simulated
process per rank and returns their values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .netsim import Cluster, Nic, Node
from .sim import Environment, Process

__all__ = ["Job", "RankContext", "run_job"]


class Job:
    """A parallel job: ``n_ranks`` ranks block-placed over the cluster."""

    def __init__(self, cluster: Cluster, ranks_per_node: int = 1, n_ranks: Optional[int] = None):
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        self.cluster = cluster
        self.ranks_per_node = ranks_per_node
        max_ranks = cluster.n_nodes * ranks_per_node
        self.n_ranks = max_ranks if n_ranks is None else n_ranks
        if not 1 <= self.n_ranks <= max_ranks:
            raise ValueError(
                f"n_ranks={self.n_ranks} out of range 1..{max_ranks}"
            )
        #: rank -> node-index placement overrides (replication failover:
        #: a promoted rank adopts its mirror's node).
        self._node_override: dict = {}
        #: placement memos, rank -> Node and (rank, rail) -> Nic.  A
        #: cluster never replaces a node it has built, so
        #: :meth:`reassign_node` is the only thing that invalidates them.
        self._node_memo: Dict[int, Node] = {}
        self._nic_memo: Dict[Tuple[int, int], Nic] = {}

    @property
    def env(self) -> Environment:
        return self.cluster.env

    def node_of(self, rank: int) -> Node:
        node = self._node_memo.get(rank)
        if node is None:
            self._check(rank)
            index = self._node_override.get(rank, rank // self.ranks_per_node)
            node = self._node_memo[rank] = self.cluster.node(index)
        return node

    def reassign_node(self, rank: int, node_index: int) -> None:
        """Re-point ``rank`` onto another node (replication failover).

        Every placement-derived decision — NIC selection, signal-table
        node indices, fallback-lane liveness — re-resolves through
        :meth:`node_of` / :meth:`nic_of` at use time, so one override
        here transparently re-targets all future traffic of ``rank``.
        """
        self._check(rank)
        if not 0 <= node_index < self.cluster.n_nodes:
            raise ValueError(f"node {node_index} out of range")
        self._node_override[rank] = node_index
        self._node_memo.clear()
        self._nic_memo.clear()

    def local_index(self, rank: int) -> int:
        """Index of ``rank`` among the ranks of its node."""
        self._check(rank)
        return rank % self.ranks_per_node

    def nic_of(self, rank: int, rail: int = 0) -> Nic:
        """NIC used by ``rank`` for ``rail``.

        With one rank per node, rail *r* maps to NIC *r* (multi-rail
        striping).  With several ranks per node, each rank's default rail
        is spread across the node's NICs so co-located ranks use
        different rails (the Figure 5 setup: 2 processes, 2 NICs).
        """
        nic = self._nic_memo.get((rank, rail))
        if nic is None:
            node = self.node_of(rank)
            base = self.local_index(rank) % node.n_rails
            nic = self._nic_memo[rank, rail] = node.nic(
                (base + rail) % node.n_rails
            )
        return nic

    def co_located(self, a: int, b: int) -> bool:
        return self.node_of(a) is self.node_of(b)

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range 0..{self.n_ranks - 1}")

    def __repr__(self) -> str:
        return f"<Job ranks={self.n_ranks} ppn={self.ranks_per_node}>"


@dataclass
class RankContext:
    """Everything a rank program needs: identity plus shared services.

    ``services`` is a per-job dict where layers register themselves
    (``'mpi'`` → the simulated MPI world, ``'unr'`` → per-rank UNR
    endpoints, …).
    """

    job: Job
    rank: int
    services: dict

    @property
    def env(self) -> Environment:
        return self.job.env

    @property
    def n_ranks(self) -> int:
        return self.job.n_ranks

    @property
    def node(self) -> Node:
        return self.job.node_of(self.rank)

    def compute(self, seconds: float, threads: int = 1):
        """Charge ``seconds`` of computation to this rank's node."""
        return self.node.cpu.compute(seconds, threads=threads)


def run_job(
    job: Job,
    fn: Callable[..., Any],
    *args: Any,
    services: Optional[dict] = None,
    until: Optional[float] = None,
    ranks: Optional[Sequence[int]] = None,
) -> List[Any]:
    """Run ``fn(ctx, *args)`` as a generator on every rank; return values.

    Raises if any rank fails or if the job does not complete.
    """
    env = job.env
    shared = services if services is not None else {}
    procs: List[Process] = []
    rank_list = list(ranks) if ranks is not None else list(range(job.n_ranks))
    for rank in rank_list:
        ctx = RankContext(job=job, rank=rank, services=shared)
        procs.append(env.process(fn(ctx, *args), name=f"rank{rank}"))
    env.run(until=until)
    results = []
    for proc in procs:
        if not proc.triggered:
            raise RuntimeError(f"{proc.name} did not finish (deadlock?) at t={env.now}")
        if not proc.ok:
            raise proc.value
        results.append(proc.value)
    return results
