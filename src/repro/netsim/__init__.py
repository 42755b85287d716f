"""Simulated HPC cluster: nodes, multi-rail NICs, fabric, CPU cores.

This package is the hardware substitute mandated by the reproduction
plan (DESIGN.md §1): it provides the *semantics* of Notifiable RMA
Primitives — RDMA PUT/GET whose completions carry custom bits into
finite completion queues — plus a calibrated latency/bandwidth/
contention model so the paper's performance shapes carry over.
"""

from .cluster import Cluster
from .faults import (
    CqStall,
    EndpointDown,
    FaultInjector,
    FaultSpec,
    LinkFlap,
    NodeCrash,
    RailFailure,
)
from .nic import (
    CompletionQueue,
    CompletionRecord,
    CqOverflowError,
    Nic,
    alloc_record,
    record_pool_stats,
    recycle_record,
    reset_record_pool,
)
from .node import CpuSet, Node
from .spec import GBPS, US, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from .trace import TraceRecord

__all__ = [
    "GBPS",
    "US",
    "Cluster",
    "ClusterSpec",
    "CompletionQueue",
    "CompletionRecord",
    "CqOverflowError",
    "CqStall",
    "CpuSet",
    "EndpointDown",
    "FabricSpec",
    "FaultInjector",
    "FaultSpec",
    "LinkFlap",
    "Nic",
    "NicSpec",
    "Node",
    "NodeCrash",
    "NodeSpec",
    "RailFailure",
    "TraceRecord",
    "alloc_record",
    "record_pool_stats",
    "recycle_record",
    "reset_record_pool",
]
