"""Polling-thread configuration (paper §IV-C).

In UNR support levels 0–3 a per-node polling thread retrieves events
from the NICs and executes ``*p += a`` against the node's signal table.
The thread has a cost, reproduced here with two effects:

* **notification delay** — an event applied ``delay`` after it lands in
  the CQ (half the polling interval on average);
* **CPU interference** — an unreserved polling thread adds
  ``duty`` core-equivalents of load to the node's :class:`CpuSet`,
  slowing computation (Figure 6, HPC-IB 16_Thread vs 18_Thread).

``mode='reserved'`` pins the thread to reserved cores (no interference,
fewer compute cores); ``mode='none'`` runs no thread at all — only
correct for Level-4 hardware offload or the software-notified MPI
fallback.

The thread itself is :class:`repro.core.engine.ProgressEngine`, the
per-node progress core of the unified transfer engine; this module only
defines its knobs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from ..units import US

__all__ = ["PollingConfig", "POLL_COST_US", "BUSY_INTERFERENCE", "SWEEP_BATCH"]

#: CPU cost of one poll sweep, us
POLL_COST_US = 0.5
#: core-equivalents an *unreserved* busy-polling thread costs the
#: application: more than one core, because the spinning thread also
#: thrashes shared caches and memory bandwidth (the reason the paper's
#: reserved-core configuration wins on HPC-IB, Fig. 6).
BUSY_INTERFERENCE = 2.5
#: max completion records drained per sweep wakeup; the progress engine
#: reuses one preallocated buffer of this size, so a larger batch costs
#: memory, not allocations.
SWEEP_BATCH = 64


@dataclass(frozen=True)
class PollingConfig:
    """Polling-thread behaviour for one node.

    mode:
      * ``busy``     — dedicated busy-polling thread sharing app cores.
      * ``reserved`` — busy thread on ``reserved_cores`` dedicated cores.
      * ``interval`` — periodic polling every ``interval_us``.
      * ``none``     — no polling thread (Level-4 / fallback only).
    """

    mode: str = "busy"
    interval_us: float = 5.0
    reserved_cores: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("busy", "reserved", "interval", "none"):
            raise ValueError(f"unknown polling mode {self.mode!r}")
        if self.mode == "interval":
            if self.interval_us <= 0:
                raise ValueError("interval_us must be positive")
            if POLL_COST_US > self.interval_us:
                # The duty cycle poll_cost/interval would exceed 1: the
                # thread cannot finish one sweep before the next is due,
                # so it degenerates into busy polling.  cpu_duty clamps
                # at the busy-thread interference — say so instead of
                # silently under-reporting the configured cost.
                warnings.warn(
                    f"interval polling with interval_us={self.interval_us} "
                    f"< POLL_COST_US={POLL_COST_US}: "
                    "the sweep never finishes before the next is due; "
                    "cpu_duty saturates at BUSY_INTERFERENCE "
                    f"({BUSY_INTERFERENCE}) — use mode='busy' (or a "
                    "longer interval) to make the cost explicit",
                    UserWarning,
                    stacklevel=3,
                )

    @property
    def dispatch_delay(self) -> float:
        """Mean extra latency between CQ arrival and signal update."""
        if self.mode == "none":
            return 0.0
        if self.mode == "interval":
            return 0.5 * self.interval_us * US
        return 0.5 * POLL_COST_US * US

    @property
    def cpu_duty(self) -> float:
        """Core-equivalents of interference on application cores."""
        if self.mode in ("none", "reserved"):
            return 0.0
        if self.mode == "busy":
            return BUSY_INTERFERENCE
        return min(1.0, POLL_COST_US / self.interval_us) * BUSY_INTERFERENCE
