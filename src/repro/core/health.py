"""Fault-domain health monitoring: circuit breakers and degradation.

The reliability layer (:mod:`repro.core.reliability`) survives
*fragment*-level faults (drops, reordering, a single rail dying) by
retransmitting with rail failover.  This module adds the
*endpoint*-level failure story the paper's fallback column (Table II)
implies and TeaMPI-style resilience work demands: when every RMA rail to
a peer is dark, the library must keep the application correct by
degrading to the MPI fallback channel — and un-degrade when the endpoint
comes back.

Three pieces, all passive (no simulator events, no RNG, ``env.now``
only — an armed healthy run is trace-fingerprint-identical to a
disarmed one):

* the breaker constants below — thresholds and backoff policy;
* :class:`CircuitBreaker` — one deterministic breaker per
  ``(src_node, dst_node, rail)`` path: ``closed`` (healthy) → ``open``
  after ``FAILURE_THRESHOLD`` consecutive failures (posts are routed
  elsewhere) → ``half_open`` once the ``env.now``-based backoff expires
  (one probe is let through) → ``closed`` again after one probe
  success, or back to ``open`` with a grown backoff when the probe
  fails;
* :class:`HealthMonitor` — the per-``Unr`` scoreboard.  It is fed from
  the two places failures are *observed*: watchdog timeouts/deliveries
  in :class:`~repro.core.reliability.ReliableDelivery` and completion
  records swept by :class:`~repro.core.polling.ProgressEngine` (a record
  that crossed the wire proves its path).  Its breakers gate
  :func:`scan_rails`, the rail scan behind the ladder's one rail
  chooser; when the scan leaves no rail the ladder degrades the op to
  the fallback channel, and :class:`~repro.core.errors.UnrPeerDeadError`
  is raised only when the fallback lane is dead too (node crash).

The degradation ladder, in full::

    RMA rails (breaker-gated, half-open probes re-promote)
      -> MPI fallback channel (same notification-token semantics)
        -> UnrPeerDeadError (fail-stop peer, op context attached)

Armed with ``Unr(reliability=True, health=True)`` (the degradation
rests on the watchdog's idempotence tokens); disarmed, the ladder
behaves exactly as before this module existed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..units import US

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim import CompletionRecord
    from .api import Unr

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "CircuitBreaker",
    "HealthMonitor",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: consecutive failures that trip a closed breaker open
FAILURE_THRESHOLD = 2
#: first open window before a half-open probe is allowed (simulated us)
OPEN_BACKOFF_US = 100.0
#: open window growth per re-open (probe failed while half-open)
BACKOFF_FACTOR = 2.0
#: cap on the open window (simulated us)
MAX_BACKOFF_US = 5000.0

#: record kinds that prove a (src_node -> dst_node) path carried data
_PATH_PROOF_KINDS = frozenset({"put_remote", "get_local", "ctrl"})


def scan_rails(
    job: Any,
    src_rank: int,
    dst_rank: int,
    preferred: int,
    monitor: Optional["HealthMonitor"] = None,
) -> Tuple[Optional[int], int]:
    """The one rail scan behind rail failover: ``(rail, hops)`` for the
    first rail at or after ``preferred`` (cyclically, ``hops`` rails
    on) whose NICs are alive on both ends, or ``(None, n_rails)`` when
    there is none.

    With a ``monitor`` the rail's breaker also has to admit traffic,
    and a rail with an observably dead NIC trips its breaker at once
    (no vote needed): its recovery then always passes through a
    half-open probe, never silently.
    """
    n_rails = min(job.node_of(src_rank).n_rails, job.node_of(dst_rank).n_rails)
    if monitor is not None:
        src_node, dst_node = monitor._nodes(src_rank, dst_rank)
    for hops in range(n_rails):
        rail = (preferred + hops) % n_rails
        alive = not (job.nic_of(src_rank, rail).failed or job.nic_of(dst_rank, rail).failed)
        if monitor is None:
            if alive:
                return rail, hops
            continue
        br = monitor.breaker(src_node, dst_node, rail)
        if not alive:
            br.trip()
        elif br.allow():
            return rail, hops
    return None, n_rails


class CircuitBreaker:
    """Deterministic three-state breaker for one (src, dst, rail) path.

    Driven entirely by explicit feed calls and ``env.now`` — it never
    schedules events and never draws randomness, so an armed run's
    event timeline is untouched.
    """

    def __init__(
        self,
        env: object,
        key: Tuple[int, int, int],
        monitor: Optional["HealthMonitor"] = None,
    ) -> None:
        self.env = env
        self.key = key
        self.monitor = monitor
        self.state: str = BREAKER_CLOSED
        self.n_failures = 0  # consecutive, while closed
        self.n_opens = 0  # lifetime opens (drives backoff growth)
        self.open_until = 0.0  # env-time the open window expires

    # ------------------------------------------------------------------
    def _backoff(self) -> float:
        grown = OPEN_BACKOFF_US * BACKOFF_FACTOR ** max(self.n_opens - 1, 0)
        return min(grown, MAX_BACKOFF_US) * US

    def _transition(self, new_state: str) -> None:
        old = self.state
        self.state = new_state
        if self.monitor is not None:
            self.monitor._on_breaker(self, old, new_state)

    def _now(self) -> float:
        return float(getattr(self.env, "now"))

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a post be routed over this path right now?

        An open breaker whose backoff window has expired moves to
        half-open as a side effect (the caller's post is the probe).
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if self._now() >= self.open_until:
                self._transition(BREAKER_HALF_OPEN)
                return True
            return False
        return True  # half-open: probes flow

    def record_success(self) -> None:
        """A delivery (or swept completion record) proved the path."""
        if self.state == BREAKER_HALF_OPEN:
            self.n_failures = 0
            self._transition(BREAKER_CLOSED)
        elif self.state == BREAKER_CLOSED:
            self.n_failures = 0

    def record_failure(self) -> None:
        """A watchdog timeout (or observed dead NIC) on this path."""
        if self.state == BREAKER_HALF_OPEN:
            self._open()
        elif self.state == BREAKER_CLOSED:
            self.n_failures += 1
            if self.n_failures >= FAILURE_THRESHOLD:
                self._open()
        # already open: nothing to record

    def trip(self) -> None:
        """Force the breaker open (a provably dead NIC needs no vote)."""
        if self.state != BREAKER_OPEN:
            self._open()

    def _open(self) -> None:
        self.n_opens += 1
        self.open_until = self._now() + self._backoff()
        self.n_failures = 0
        self._transition(BREAKER_OPEN)

    def __repr__(self) -> str:
        src, dst, rail = self.key
        return (
            f"<CircuitBreaker {src}->{dst} rail{rail} {self.state} "
            f"opens={self.n_opens}>"
        )


class HealthMonitor:
    """Per-:class:`~repro.core.api.Unr` endpoint-health scoreboard.

    Owns one :class:`CircuitBreaker` per observed
    ``(src_node, dst_node, rail)`` path, the degraded-peer bookkeeping
    (when did a pair fall back, when did it re-promote) and the obs /
    stats plumbing.  Everything is synchronous bookkeeping on the
    caller's stack — no events, no RNG.
    """

    def __init__(self, unr: "Unr") -> None:
        self.unr = unr
        self.env = unr.env
        self.job = unr.job
        self._breakers: Dict[Tuple[int, int, int], CircuitBreaker] = {}
        #: (src_node, dst_node) -> env-time the pair degraded to fallback
        self.degraded_since: Dict[Tuple[int, int], float] = {}
        #: completed degradation windows (for time-to-recover metrics)
        self.recovery_log: List[Dict[str, float]] = []

    # ------------------------------------------------------------------
    def breaker(self, src_node: int, dst_node: int, rail: int) -> CircuitBreaker:
        key = (src_node, dst_node, rail)
        br = self._breakers.get(key)
        if br is None:
            br = CircuitBreaker(self.env, key, monitor=self)
            self._breakers[key] = br
        return br

    def _nodes(self, src_rank: int, dst_rank: int) -> Tuple[int, int]:
        return (
            self.job.node_of(src_rank).index,
            self.job.node_of(dst_rank).index,
        )

    # -- dead checks ----------------------------------------------------
    def fallback_dead(self, src_rank: int, dst_rank: int) -> bool:
        """The ordered MPI lane is dead only on a fail-stop node crash."""
        return bool(
            self.job.node_of(src_rank).crashed
            or self.job.node_of(dst_rank).crashed
        )

    # -- feeds ----------------------------------------------------------
    def on_timeout(self, src_rank: int, dst_rank: int, rail: int) -> None:
        """Watchdog timeout on an RMA attempt."""
        src_node, dst_node = self._nodes(src_rank, dst_rank)
        self.breaker(src_node, dst_node, rail).record_failure()
        self.unr.stats["health_timeouts"] += 1

    def on_success(self, src_rank: int, dst_rank: int, rail: int) -> None:
        """Watchdog saw an RMA attempt deliver on ``rail``."""
        src_node, dst_node = self._nodes(src_rank, dst_rank)
        self.breaker(src_node, dst_node, rail).record_success()
        self._maybe_repromote(src_node, dst_node)

    def on_cq_record(self, rail: int, record: "CompletionRecord") -> None:
        """Progress-engine feed: a swept record that crossed the wire
        proves its (src, dst) path on this rail."""
        if record.kind not in _PATH_PROOF_KINDS:
            return
        src, dst = record.src_node, record.dst_node
        if src < 0 or dst < 0 or src == dst:
            return
        br = self._breakers.get((src, dst, rail))
        if br is not None and br.state != BREAKER_CLOSED:
            br.record_success()
            self._maybe_repromote(src, dst)

    # -- degradation bookkeeping ----------------------------------------
    def on_degraded(self, src_rank: int, dst_rank: int, what: str) -> None:
        """The ladder routed an op to the fallback lane."""
        unr = self.unr
        unr.stats["degraded_ops"] += 1
        src_node, dst_node = self._nodes(src_rank, dst_rank)
        pair = (src_node, dst_node)
        if pair not in self.degraded_since:
            self.degraded_since[pair] = float(self.env.now)
            unr.stats["degradations"] += 1
            if unr.obs is not None:
                unr.obs.event(
                    "health.degraded", track="health",
                    src_node=src_node, dst_node=dst_node, what=what,
                )
        if unr.obs is not None:
            unr.obs.count("health.degraded_ops")

    def _maybe_repromote(self, src_node: int, dst_node: int) -> None:
        """A degraded pair whose RMA plane answered again re-promotes."""
        pair = (src_node, dst_node)
        t0 = self.degraded_since.pop(pair, None)
        if t0 is None:
            return
        unr = self.unr
        now = float(self.env.now)
        self.recovery_log.append(
            {
                "src_node": float(src_node),
                "dst_node": float(dst_node),
                "degraded_at_us": t0 / US,
                "recovered_at_us": now / US,
                "duration_us": (now - t0) / US,
            }
        )
        unr.stats["repromotions"] += 1
        if unr.obs is not None:
            unr.obs.event(
                "health.repromoted", track="health",
                src_node=src_node, dst_node=dst_node,
                degraded_us=(now - t0) / US,
            )
            unr.obs.complete_span(
                "health", f"degraded {src_node}->{dst_node}", t0, now,
                cat="health",
            )
            unr.obs.observe("health.time_to_recover_us", (now - t0) / US)

    # -- breaker transition plumbing ------------------------------------
    def _on_breaker(self, br: CircuitBreaker, old: str, new: str) -> None:
        unr = self.unr
        src_node, dst_node, rail = br.key
        if new == BREAKER_OPEN:
            unr.stats["breaker_opens"] += 1
        elif new == BREAKER_CLOSED:
            unr.stats["breaker_closes"] += 1
        if unr.obs is not None:
            unr.obs.event(
                f"health.breaker_{new}", track="health",
                src_node=src_node, dst_node=dst_node, rail=rail, was=old,
            )

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Sorted, JSON-friendly view of the breaker table (for tests
        and the chaos bench)."""
        breakers = {
            f"{src}->{dst}/rail{rail}": {
                "state": br.state,
                "opens": br.n_opens,
            }
            for (src, dst, rail), br in sorted(self._breakers.items())
        }
        return {
            "breakers": breakers,
            "degraded_pairs": sorted(
                f"{s}->{d}" for s, d in self.degraded_since
            ),
            "recoveries": len(self.recovery_log),
        }

    def __repr__(self) -> str:
        return (
            f"<HealthMonitor breakers={len(self._breakers)} "
            f"degraded={len(self.degraded_since)} "
            f"recoveries={len(self.recovery_log)}>"
        )
