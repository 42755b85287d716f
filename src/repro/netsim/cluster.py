"""Cluster assembly: nodes + NICs + fabric from a :class:`ClusterSpec`.

Nodes are **lazily instantiated**: constructing a :class:`Cluster` for
the paper's full TH-XY envelope (1728 nodes, §VII Figure 7) costs O(1)
per node — one pre-drawn seed — and a Node/NIC object graph is built
only when a node is first touched.  A halo-exchange job over a small
rank neighbourhood therefore never pays object setup for the other
~1700 nodes.

Determinism contract (what makes laziness behaviour-invisible):

* All node seeds are drawn **eagerly** at construction from the cluster
  RNG, in index order — the exact stream the historical eager loop
  consumed — so ``cluster.node(7)`` yields the same node regardless of
  which nodes were touched before it.
* Node/NIC construction schedules no simulation events, so
  materialization order cannot perturb the event sequence.
* Layers that wrap NICs (fault injectors, the observability recorder)
  register *node hooks* via :meth:`Cluster.add_node_hook`; hooks run in
  registration order on every node at materialization time, preserving
  the historical wrapper nesting (faults innermost, recorder outside).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Union

import numpy as np

from ..sim import Environment
from .nic import reset_record_pool
from .node import Node
from .spec import ClusterSpec

__all__ = ["Cluster"]

#: hook signature: called with each Node exactly once, at materialization
NodeHook = Callable[[Node], None]


class _NodesView:
    """Sequence facade over a lazy cluster's nodes.

    Supports the full read-only sequence protocol (``len``, ``in``,
    int/negative/slice indexing, iteration); any access materializes the
    touched node(s).  Iterating the view materializes the whole cluster
    — fine for tests and small machines, deliberate when you really do
    want every node.
    """

    __slots__ = ("_cluster",)

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster

    def __len__(self) -> int:
        return self._cluster.spec.n_nodes

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self._cluster.node(i)
                    for i in range(*index.indices(len(self)))]
        return self._cluster.node(index)

    def __iter__(self) -> Iterator[Node]:
        for i in range(len(self)):
            yield self._cluster.node(i)

    def __repr__(self) -> str:
        c = self._cluster
        return f"<nodes of {c.spec.name!r}: {c.n_materialized}/{len(self)} materialized>"


class Cluster:
    """A simulated machine.

    >>> from repro.netsim import Cluster, ClusterSpec, NodeSpec, NicSpec
    >>> spec = ClusterSpec("toy", 2, NodeSpec(cores=4, nics=2),
    ...                    NicSpec(bandwidth_gbps=100, latency_us=1.0))
    >>> cluster = Cluster(Environment(), spec)
    >>> cluster.nodes[0].n_rails
    2
    """

    def __init__(self, env: Environment, spec: ClusterSpec):
        self.env = env
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        # Eager seed draw in index order: identical RNG stream to the
        # historical eager construction loop (the determinism anchor —
        # see module docstring).
        self._seeds: List[int] = [
            int(self.rng.integers(0, 2**63 - 1)) for _ in range(spec.n_nodes)
        ]
        self._nodes: Dict[int, Node] = {}
        self._node_hooks: List[NodeHook] = []
        self.nodes = _NodesView(self)
        # Cold-start the process-global completion-record pool: per-run
        # hit/miss stats, and byte-stable metrics across identical runs.
        reset_record_pool()

    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes

    @property
    def n_materialized(self) -> int:
        """How many nodes have actually been built (laziness telemetry)."""
        return len(self._nodes)

    def node(self, index: int) -> Node:
        """Return node ``index``, materializing it on first touch."""
        n = self.spec.n_nodes
        if index < 0:
            index += n
        node = self._nodes.get(index)
        if node is not None:
            return node
        if not 0 <= index < n:
            raise IndexError(f"node index {index} out of range (0..{n - 1})")
        node = Node(self.env, index, self.spec.node, self.spec.fabric,
                    seed=self._seeds[index])
        node._attach_nics(self.spec.nic, self.spec.node.nics)
        self._nodes[index] = node
        for hook in self._node_hooks:
            hook(node)
        return node

    def add_node_hook(self, hook: NodeHook) -> None:
        """Register ``hook`` to run on every node at materialization.

        The hook is applied immediately to already-materialized nodes
        (in index order), so attach-order semantics match the historical
        eager loops: a layer attached earlier wraps earlier and thus
        sits innermost.
        """
        self._node_hooks.append(hook)
        for index in sorted(self._nodes):
            hook(self._nodes[index])

    def materialized_nodes(self) -> List[Node]:
        """The nodes built so far, in index order (no materialization)."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def inject_faults(self, spec) -> "FaultInjector":
        """Attach a :class:`~repro.netsim.faults.FaultInjector` built
        from ``spec`` (a :class:`FaultSpec` or a spec string).  Attach
        faults *before* the :class:`~repro.obs.Recorder` so its
        transfer log sees post-fault delivery times."""
        from .faults import FaultInjector, FaultSpec

        if isinstance(spec, str):
            spec = FaultSpec.parse(spec)
        return FaultInjector.attach(self, spec)

    def total_traffic(self) -> dict:
        """Aggregate NIC counters (for tests and benchmark reports).

        Sums the NICs of the nodes built so far and builds none: an
        unmaterialized NIC cannot have moved a byte.
        """
        nics = [nic for node in self._nodes.values() for nic in node.nics]
        return {
            "tx_msgs": sum(nic.tx_msgs for nic in nics),
            "tx_bytes": sum(nic.tx_bytes for nic in nics),
            "rx_msgs": sum(nic.rx_msgs for nic in nics),
            "rx_bytes": sum(nic.rx_bytes for nic in nics),
            "cq_overflow_stalls": sum(nic.cq.n_overflow_stalls for nic in nics),
        }

    def __repr__(self) -> str:
        return (
            f"<Cluster {self.spec.name!r} nodes={self.n_nodes} "
            f"materialized={self.n_materialized}>"
        )
