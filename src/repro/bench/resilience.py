"""Chaos soak: endpoint failures, graceful degradation, recovery metrics.

``resilience_bench`` runs the PR 1 producer→consumer stress stream
under an *endpoint-level* fault schedule — the fabric noise of
``repro.bench.stream``'s fault demo plus a window where every rail of the
consumer's node is dark — on the four Table III platforms, with the
reliability layer *and* the health layer armed.  Each platform's
schedule runs twice and the record keeps the two verdicts that make
the resilience story checkable in CI:

1. **correct** — every message arrives intact even though the RMA
   plane to the peer went fully dark mid-run (the ops degrade to the
   MPI fallback channel and re-promote after recovery);
2. **identical** — both runs of the seeded schedule produce the same
   :func:`~repro.netsim.trace.transfer_fingerprint` (degradation and
   re-promotion are deterministic).

Per platform the record reports the resilience counters (degraded /
recovered ops, breaker transitions, re-promotions) and nearest-rank
percentiles of the time-to-recover distribution from
:attr:`~repro.core.health.HealthMonitor.recovery_log`.  The result is
the machine-readable ``BENCH_resilience.json`` record (schema
``repro.bench.resilience/3``).  The soak's verdict over that record,
the one ``repro chaos`` exits on, is the claims ledger's
``ext.resilience.*`` claims (:func:`repro.bench.paper.chaos_entries`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Optional, Sequence

from ..core import Unr
from ..netsim import FaultInjector, FaultSpec, NodeCrash
from ..platforms import PLATFORMS, get_platform, make_job
from .stream import _producer_consumer, run_stream

__all__ = ["RESILIENCE_SCHEMA", "DEFAULT_CHAOS_FAULTS", "resilience_bench",
           "write_resilience_bench"]

RESILIENCE_SCHEMA = "repro.bench.resilience/3"

#: simulated time at which the replication leg kills world 0's
#: consumer node (mid-stream on every Table III platform).
REPLICATION_CRASH_US = 120.0

#: the PR 1 stress noise plus an endpoint-down window on the consumer:
#: every rail of node 1 goes dark at t=40us and recovers at t=290us (the
#: window is sized so even the slowest Table III platform observes at
#: least one watchdog timeout while the endpoint is dark).
DEFAULT_CHAOS_FAULTS = "drop=0.2,reorder=0.2,endpoint_down@t=40:dur=250:node=1"


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(int(len(sorted_values) * q + 0.999999) - 1, 0)
    return float(sorted_values[min(rank, len(sorted_values) - 1)])


def _summary(values: Iterable[float], *qs: float) -> Dict[str, Any]:
    """Nearest-rank percentiles ``p<100q>`` of ``values``, their max and
    their count (0 when empty)."""
    ordered = sorted(values)
    out: Dict[str, Any] = {f"p{round(q * 100)}": _percentile(ordered, q) for q in qs}
    return dict(out, max=ordered[-1] if ordered else 0.0, n=len(ordered))


def _one_run(spec: FaultSpec, **stream: Any) -> Dict[str, Any]:
    result, unr, _ = run_stream(spec, health=True, **stream)
    result.update({key: int(unr.stats[key]) for key in (
        "retransmits", "recovered_ops", "degraded_ops", "degradations", "repromotions",
        "breaker_opens", "breaker_closes", "fallback_posts")})
    result["time_to_recover_us"] = _summary(
        (w["duration_us"] for w in unr.health.recovery_log), 0.50, 0.90, 0.99)
    return result


def _one_replicated_run(platform: str, team_size: int, size: int, iters: int, seed: int,
                        crash_us: Optional[float]) -> Dict[str, Any]:
    """One producer→consumer stream in each of ``team_size`` replica
    worlds of a 2x``team_size``-node job; ``crash_us`` kills world 0's
    consumer node mid-stream."""
    # Imported here so that importing repro.bench does not load the tier.
    from ..replication import TeamWorld

    plat = get_platform(platform)
    job = make_job(platform, 2 * team_size, seed=seed)
    if crash_us is not None:
        FaultInjector.attach(job.cluster, FaultSpec(node_crashes=(NodeCrash(crash_us, node=1),)))
    unr = Unr(job, plat.channel, reliability=True, health=True)
    world = TeamWorld(unr, team_size)
    result = _producer_consumer(unr, job, size=size, iters=iters, world=world)
    result.update(
        live_worlds=sorted(world.live),
        failovers=int(unr.stats["replication_failovers"]),
        heartbeats=int(unr.stats["replication_heartbeats"]),
        failover_log=[dict(rec) for rec in world.failover_log],
    )
    return result


def _intact(run: Dict[str, Any], iters: int) -> bool:
    """Every surviving world got ``iters`` byte-exact payloads."""
    return all(run["correct"][w] == iters for w in run["live_worlds"])


def _replication_block(platform: str, *, team_size: int, size: int, iters: int, seed: int,
                       crash_us: float) -> Dict[str, Any]:
    """Replication overhead + failover metrics for one platform.

    The overhead ratio compares the replicated healthy stream against
    an unreplicated baseline on the *same* cluster size (the extra cost
    is the concurrent replica streams and the heartbeats, not
    topology).  The crash leg runs the same seeded schedule twice;
    per-crash TTRs come from the
    :attr:`~repro.replication.TeamWorld.failover_log`.
    """
    plat = get_platform(platform)
    base_job = make_job(platform, 2 * team_size, seed=seed)
    base_unr = Unr(base_job, plat.channel, reliability=True, health=True)
    baseline = _producer_consumer(base_unr, base_job, size=size, iters=iters, ranks=[0, 1])
    stream = dict(platform=platform, team_size=team_size, size=size, iters=iters, seed=seed)
    healthy = _one_replicated_run(**stream, crash_us=None)
    crash_runs = [_one_replicated_run(**stream, crash_us=crash_us) for _ in range(2)]
    return {
        "baseline_time_us": baseline["time"] * 1e6,
        "replicated_time_us": healthy["time"] * 1e6,
        "overhead_ratio": healthy["time"] / baseline["time"] if baseline["time"] > 0 else 0.0,
        "healthy": {
            "correct": _intact(healthy, iters) and healthy["failovers"] == 0,
            "heartbeats": healthy["heartbeats"],
        },
        "crash": {
            "runs": crash_runs,
            "correct": all(_intact(r, iters) for r in crash_runs),
            "identical": crash_runs[0]["failover_log"] == crash_runs[1]["failover_log"],
            "failovers": crash_runs[0]["failovers"],
            "ttr_us": _summary((rec["ttr_us"] for rec in crash_runs[0]["failover_log"]),
                               0.50, 0.95),
        },
    }


def resilience_bench(
    platforms: Optional[Sequence[str]] = None,
    *,
    faults: str = DEFAULT_CHAOS_FAULTS,
    size: int = 64 * 1024,
    iters: int = 32,
    seed: int = 2024,
    fault_seed: int = 3,
    replication: bool = True,
    team_size: int = 2,
) -> Dict[str, Any]:
    """Run the chaos soak; returns the ``BENCH_resilience.json`` record.

    ``replication=True`` (the default) adds the replication leg: per
    platform, an unreplicated baseline, a healthy replicated stream
    (overhead ratio) and two seeded node-crash runs (per-crash TTR and
    determinism verdicts).
    """
    if platforms is None:
        platforms = list(PLATFORMS)
    spec = FaultSpec.parse(faults, seed=fault_seed)
    per_platform: Dict[str, Any] = {}
    for platform in platforms:
        runs = [_one_run(spec, platform=platform, size=size, iters=iters, seed=seed)
                for _ in range(2)]
        per_platform[platform] = {
            "runs": runs,
            "identical": runs[0]["fingerprint"] == runs[1]["fingerprint"],
            "correct": all(r["correct"] == iters for r in runs),
            "degraded": all(r["degraded_ops"] > 0 for r in runs),
        }
    legs = list(per_platform.values())
    rep_block: Optional[Dict[str, Any]] = None
    if replication:
        reps = {platform: _replication_block(platform, team_size=team_size, size=size,
                                             iters=iters, seed=seed,
                                             crash_us=REPLICATION_CRASH_US)
                for platform in platforms}
        rep_block = {
            "team_size": team_size,
            "crash_us": REPLICATION_CRASH_US,
            "platforms": reps,
            "overhead_ratio": max(b["overhead_ratio"] for b in reps.values()),
            "p95_failover_ttr_us": max(b["crash"]["ttr_us"]["p95"] for b in reps.values()),
            "correct": all(b["healthy"]["correct"] and b["crash"]["correct"]
                           for b in reps.values()),
            "identical": all(b["crash"]["identical"] for b in reps.values()),
        }
        legs.append(rep_block)
    return {
        "schema": RESILIENCE_SCHEMA,
        "name": "resilience_bench",
        "params": {
            "faults": faults, "n_nodes": 2, "size": size,
            "iters": iters, "seed": seed, "fault_seed": fault_seed,
            "replication": replication, "team_size": team_size,
        },
        "platforms": per_platform,
        "replication": rep_block,
        "correct": all(leg["correct"] for leg in legs),
        "identical": all(leg["identical"] for leg in legs),
    }


def write_resilience_bench(record: Dict[str, Any], path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return path
