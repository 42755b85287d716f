"""The polling thread and its knobs (paper §IV-C).

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

The thread itself is :class:`ProgressEngine`, the per-node progress
core: it drains all of a node's NIC completion queues in batched sweeps
and dispatches each record to the handler registered for its kind (MMAS
signal adds, ctrl-message applies, …).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..netsim import CompletionRecord, Node, recycle_record
from ..sim import Environment, InFlight
from ..units import US

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .health import HealthMonitor

__all__ = ["PollingConfig", "ProgressEngine", "POLL_COST_US", "BUSY_INTERFERENCE", "SWEEP_BATCH"]

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


def _sweep_fire(ev: "_SweepFire") -> None:
    ev.sweeper._fire(ev.record)


class _SweepFire(InFlight):
    """One sweep's fire: ``record`` reached ``sweeper`` a dispatch delay ago."""

    __slots__ = ("sweeper", "record")
    handlers = (_sweep_fire,)


class _Sweeper:
    """One rail's share of the polling thread, as callbacks.

    Parked on the rail's CQ between sweeps; the push that finds it there
    calls :meth:`on_record`, which only schedules.  ``_fire`` — always
    its own kernel event, ``dispatch_delay`` after the record arrived —
    runs the handlers and parks again.
    """

    __slots__ = ("engine", "nic", "cq", "delay", "_on_record")

    def __init__(self, engine: "ProgressEngine", nic: Any) -> None:
        self.engine = engine
        self.nic = nic
        self.cq = nic.cq
        self.delay = engine.config.dispatch_delay
        #: the parked consumer, bound once rather than per park
        self._on_record = self.on_record
        self._park()

    def _park(self) -> None:
        # A record already queued (a backlog beyond the batch limit) is
        # taken now but starts its sweep from a zero-delay event, the
        # way a get() on a non-empty queue is served.
        record = self.cq.park(self._on_record)
        if record is not None:
            self.engine.env.defer(0.0, self._on_record, record)

    def on_record(self, record: CompletionRecord) -> None:
        """A sweep begins.  Runs inside the producer's kernel event."""
        engine = self.engine
        engine.n_sweeps += 1
        # A stalled CQ (fault injection) holds its records back: the
        # progress engine is wedged until the stall window passes.
        if self.cq.is_stalled:
            self._stall_over(record)
        else:
            fire = _SweepFire(engine.env, self.delay)
            fire.sweeper = self
            fire.record = record

    def _stall_over(self, record: CompletionRecord) -> None:
        cq = self.cq
        env = self.engine.env
        if cq.is_stalled:  # still, or again: the window can be extended
            env.defer(cq.stalled_until - env.now, self._stall_over, record)
        elif self.delay > 0:
            env.defer(self.delay, self._fire, record)
        else:
            self._fire(record)  # already in a kernel event of our own

    def _fire(self, record: CompletionRecord) -> None:
        engine = self.engine
        nic = self.nic
        cq = self.cq
        engine._dispatch(nic, record)
        backlog = cq.park(self._on_record)
        if backlog is None:
            return  # the usual case: nothing else arrived, parked again
        if cq.is_stalled:  # holds its records back: the next sweep waits it out
            engine.env.defer(0.0, self._on_record, backlog)
            return
        # Drain whatever else arrived during the delay in one batched
        # sweep — no extra simulator events per record, no allocations
        # (records land in the preallocated buffer; ``backlog`` is the
        # first of them, already off the queue).  Anything beyond the
        # batch limit starts the next sweep from _park.
        batch = engine._batch
        n = cq.poll_batch_into(batch, len(batch) - 1)
        engine._dispatch(nic, backlog)
        for i in range(n):
            extra = batch[i]
            batch[i] = None
            engine._dispatch(nic, extra)
        self._park()


class ProgressEngine:
    """One node's progress core: batched CQ sweeps, handler dispatch.

    The paper's per-node polling thread (§IV-C), modelled without a
    simulated process: one :class:`_Sweeper` per NIC is *parked* on that
    rail's completion queue, and the NIC delivery that pushes a record
    hands it over directly.  The record is applied after the configured
    dispatch delay, in a kernel event of its own even when the delay is
    zero (a handler never runs inside the NIC's delivery callback); the
    same event then drains whatever else accumulated in one batched
    sweep (a real polling thread processes the CQ in batches) and parks
    the sweeper again.  Records dispatch to the handler registered for
    their ``kind`` — the library registers MMAS custom-bit decoding for
    RMA completions and the (p, a) apply for Level-0 ctrl messages —
    with ``default_handler`` as the catch-all.
    """

    def __init__(
        self,
        env: Environment,
        node: Node,
        config: PollingConfig,
        default_handler: Optional[Callable[[int, CompletionRecord], None]] = None,
        *,
        health: Optional["HealthMonitor"] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.config = config
        self.default_handler = default_handler
        self.handlers: Dict[str, Callable[[int, CompletionRecord], None]] = {}
        #: health monitor fed with every swept record: a completion that
        #: crossed the wire proves its (src, dst, rail) path, which is
        #: what closes half-open breakers without extra probe traffic.
        self.health = health
        self.n_sweeps = 0
        self.n_dispatched = 0
        self.total_delay = 0.0
        #: preallocated sweep buffer — one per engine, reused by every
        #: rail's sweeper (sweepers never interleave mid-drain).
        self._batch: List[Optional[CompletionRecord]] = [None] * SWEEP_BATCH
        if config.mode == "none":
            return
        if config.mode == "reserved":
            node.cpu.reserve(config.reserved_cores)
        elif config.cpu_duty > 0:
            node.cpu.add_polling_load(config.cpu_duty)
        for nic in node.nics:
            _Sweeper(self, nic)  # kept alive by the queue it parks on

    def register(
        self, kind: str, handler: Callable[[int, CompletionRecord], None]
    ) -> None:
        """Dispatch records of ``kind`` to ``handler(node_index, record)``."""
        self.handlers[kind] = handler

    def _dispatch(self, nic: Any, record: CompletionRecord) -> None:
        self.n_dispatched += 1
        delay = self.env.now - record.complete_time
        self.total_delay += delay
        kind = record.kind
        handler = self.handlers.get(kind, self.default_handler)
        if handler is not None:
            # Read through env each dispatch (not cached at construction)
            # so profilers attached after engine creation are still seen.
            prof = self.env.profile
            if prof is not None:
                t0 = prof.dispatch_begin()
                handler(self.node.index, record)
                prof.dispatch_end(kind, t0)
            else:
                handler(self.node.index, record)
        if self.health is not None:
            self.health.on_cq_record(nic.index, record)
        # Pooled records go back to the free list the moment
        # they are dispatched (no-op for un-pooled records): handlers
        # consume record fields synchronously and must not retain the
        # record object itself.
        recycle_record(record)

