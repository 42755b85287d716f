"""Hardware specification dataclasses for the simulated cluster.

Specs are written in engineering units (Gbps, microseconds).  The SI
properties (bytes/second, seconds) convert on every access;
:class:`~repro.netsim.nic.Nic` reads each once at construction and the
datapath computes with the NIC's resolved attributes from then on.
All specs are frozen so a platform definition cannot drift mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..units import GBPS, US

__all__ = ["NicSpec", "FabricSpec", "NodeSpec", "ClusterSpec", "GBPS", "US"]


@dataclass(frozen=True)
class NicSpec:
    """One network interface card.

    Parameters
    ----------
    bandwidth_gbps:
        Link rate in Gbit/s (Table III: 200 for new TH Express, 114 for
        TH-2A, 100 for EDR IB, 25 for RoCE).
    latency_us:
        Base one-way wire+switch latency for a minimal message.
    msg_overhead_us:
        Per-message software/doorbell injection overhead on the sender.
    rx_overhead_us:
        Per-message handling overhead on the receiver NIC.
    cq_depth:
        Completion-queue depth; deliveries stall when the queue is full
        (the overflow problem that motivates the polling thread).
    atomic_offload:
        Level-4 co-design: the NIC can execute an atomic add against a
        host counter at delivery time, bypassing the completion queue.
    """

    bandwidth_gbps: float
    latency_us: float
    msg_overhead_us: float = 0.3
    rx_overhead_us: float = 0.2
    cq_depth: int = 4096
    atomic_offload: bool = False

    @property
    def bandwidth(self) -> float:
        """Bytes per second."""
        return self.bandwidth_gbps * GBPS

    @property
    def latency(self) -> float:
        """Seconds."""
        return self.latency_us * US

    @property
    def msg_overhead(self) -> float:
        return self.msg_overhead_us * US

    @property
    def rx_overhead(self) -> float:
        return self.rx_overhead_us * US

    def with_offload(self) -> "NicSpec":
        """Copy of this spec with Level-4 hardware atomic-add enabled."""
        return replace(self, atomic_offload=True)


@dataclass(frozen=True)
class FabricSpec:
    """Network fabric behaviour shared by all NICs of a cluster.

    ``routing_jitter`` is the adaptive-routing / multi-rail disorder
    knob: each message (or fragment) receives an extra delay drawn
    uniformly from ``[0, routing_jitter * serialization_time]``, so
    fragments of a striped message can arrive out of order — the reason
    partial-byte polling is unsafe (paper §II).
    """

    routing_jitter: float = 0.25
    intra_node_latency_us: float = 0.4
    intra_node_bandwidth_gbps: float = 400.0
    #: messages at or below this size interleave with bulk transfers at
    #: packet granularity (virtual lanes): they do not wait for — nor
    #: occupy — the ports' busy-until windows.  Without this, a 1 KB
    #: control message would head-of-line block behind a multi-MB RDMA
    #: write, which real fabrics do not do.
    small_message_cutoff: int = 8192

    @property
    def intra_node_latency(self) -> float:
        return self.intra_node_latency_us * US

    @property
    def intra_node_bandwidth(self) -> float:
        return self.intra_node_bandwidth_gbps * GBPS


@dataclass(frozen=True)
class NodeSpec:
    """One compute node: cores plus one or more rails (NICs)."""

    cores: int
    nics: int = 1
    core_gflops: float = 20.0  # per-core sustained GFLOP/s for the cost model

    @property
    def core_flops(self) -> float:
        return self.core_gflops * 1e9


@dataclass(frozen=True)
class ClusterSpec:
    """A full machine: homogeneous nodes on one fabric."""

    name: str
    n_nodes: int
    node: NodeSpec
    nic: NicSpec
    fabric: FabricSpec = field(default_factory=FabricSpec)
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if self.node.nics < 1:
            raise ValueError("node needs at least one NIC")
