"""UNR: the Unified Notifiable RMA library (the paper's contribution).

Layered as in the paper (§IV-A): the *UNR Transport Layer* abstracts
Notifiable RMA Primitives (:mod:`repro.interconnect` adapters +
:mod:`repro.core.levels` encodings + the unified transfer engine in
:mod:`repro.core.engine` — one ``post_op`` pipeline and a per-node
``ProgressEngine``), and the *UNR Interface Module* exposes signals,
BLKs, PUT/GET and plans (:mod:`repro.core.api`).
"""

from .api import Unr, UnrEndpoint
from .convert import alltoallv_convert, irecv_convert, isend_convert, sendrecv_convert
from .engine import (
    CTRL_BYTES,
    FALLBACK_RAIL,
    ProgressEngine,
    StripePlan,
    TransferEngine,
    TransferOp,
)
from .errors import (
    FailoverContext,
    OpContext,
    UnrDegradeWarning,
    UnrError,
    UnrFailoverError,
    UnrOverflowError,
    UnrPeerDeadError,
    UnrSyncError,
    UnrSyncWarning,
    UnrTimeoutError,
    UnrUsageError,
)
from .health import CircuitBreaker, HealthConfig, HealthMonitor
from .replication import ReplicationConfig, ReplicationManager, TeamWorld
from .levels import LevelPolicy, decode_custom, encode_custom, max_signals, policy_for_channel
from .memory import Blk, MemoryRegion
from .plan import PlannedOp, RmaPlan
from .polling import PollingConfig
from .signal import DEFAULT_N_BITS, MASK64, Signal, submessage_addends
from .transport import (
    DEFAULT_STRIPE_THRESHOLD,
    MIN_FRAGMENT,
    ReliabilityConfig,
    Stripe,
    plan_stripes,
)

__all__ = [
    "Blk",
    "CTRL_BYTES",
    "CircuitBreaker",
    "DEFAULT_N_BITS",
    "DEFAULT_STRIPE_THRESHOLD",
    "FALLBACK_RAIL",
    "FailoverContext",
    "HealthConfig",
    "HealthMonitor",
    "LevelPolicy",
    "MASK64",
    "MIN_FRAGMENT",
    "MemoryRegion",
    "OpContext",
    "PlannedOp",
    "PollingConfig",
    "ProgressEngine",
    "ReliabilityConfig",
    "ReplicationConfig",
    "ReplicationManager",
    "RmaPlan",
    "Signal",
    "TeamWorld",
    "Stripe",
    "StripePlan",
    "TransferEngine",
    "TransferOp",
    "Unr",
    "UnrDegradeWarning",
    "UnrEndpoint",
    "UnrError",
    "UnrFailoverError",
    "UnrOverflowError",
    "UnrPeerDeadError",
    "UnrSyncError",
    "UnrSyncWarning",
    "UnrTimeoutError",
    "UnrUsageError",
    "alltoallv_convert",
    "decode_custom",
    "encode_custom",
    "irecv_convert",
    "isend_convert",
    "max_signals",
    "plan_stripes",
    "policy_for_channel",
    "sendrecv_convert",
    "submessage_addends",
]
