"""Fault-domain resilience: breakers, degradation, drain, op context.

The unit tests drive :class:`~repro.core.health.CircuitBreaker`
directly with a stub clock; the end-to-end tests run the credit-flow
stream of ``test_reliability`` under endpoint-level fault schedules and
check the full degradation ladder:

    RMA rails -> MPI fallback channel -> UnrPeerDeadError
"""

import numpy as np
import pytest

from repro.core import (
    FALLBACK_RAIL,
    HealthConfig,
    HealthMonitor,
    ReliabilityConfig,
    Unr,
    UnrPeerDeadError,
    UnrTimeoutError,
)
from repro.core.health import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.netsim import (
    Cluster,
    ClusterSpec,
    CqStall,
    EndpointDown,
    FabricSpec,
    FaultInjector,
    FaultSpec,
    LinkFlap,
    NicSpec,
    NodeCrash,
    NodeSpec,
    RailFailure,
)
from repro.netsim.trace import transfer_fingerprint
from repro.obs import Recorder
from repro.runtime import Job, run_job
from repro.sim import Environment
from repro.units import US

from .test_reliability import get_stream_program


def make_unr(channel="glex", n_nodes=2, nics=2, faults=None, trace=False, **kw):
    env = Environment()
    spec = ClusterSpec(
        "t",
        n_nodes,
        NodeSpec(cores=4, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0),
        FabricSpec(routing_jitter=0.3),
        seed=11,
    )
    job = Job(Cluster(env, spec), ranks_per_node=1)
    if faults is not None:
        FaultInjector.attach(job.cluster, faults)
    tr = Recorder.attach(job.cluster) if trace else None
    return job, Unr(job, channel, **kw), tr


def stream_program(unr, results, *, size, iters):
    """Rank 0 streams patterned buffers to rank 1 with credit flow."""

    def pattern(it):
        return ((np.arange(size) * 13 + it) % 251).astype(np.uint8)

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            for it in range(iters):
                buf[:] = pattern(it)
                ep.put(blk, rmt)
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.recv_ctl(1, tag="credit")
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            for it in range(iters):
                yield from ep.sig_wait(sig)
                results[it] = np.array_equal(buf, pattern(it))
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="credit")
        return ctx.env.now

    return program


class StubClock:
    def __init__(self, now=0.0):
        self.now = now


# ---------------------------------------------------------------- config
def test_health_config_validates():
    with pytest.raises(ValueError, match="failure_threshold"):
        HealthConfig(failure_threshold=0)
    with pytest.raises(ValueError, match="success_threshold"):
        HealthConfig(success_threshold=0)
    with pytest.raises(ValueError, match="open_backoff_us"):
        HealthConfig(open_backoff_us=0.0)
    with pytest.raises(ValueError, match="backoff_factor"):
        HealthConfig(backoff_factor=0.5)
    with pytest.raises(ValueError, match="max_backoff_us"):
        HealthConfig(open_backoff_us=100.0, max_backoff_us=10.0)


# ---------------------------------------------------------------- breaker
def fresh_breaker(clock=None, **cfg):
    clock = clock or StubClock()
    config = HealthConfig(**cfg) if cfg else HealthConfig()
    return CircuitBreaker(clock, (0, 1, 0), config), clock


def test_breaker_opens_after_failure_threshold():
    br, _ = fresh_breaker(failure_threshold=2)
    assert br.state == BREAKER_CLOSED and br.allow()
    br.record_failure()
    assert br.state == BREAKER_CLOSED  # one strike is not an outage
    br.record_failure()
    assert br.state == BREAKER_OPEN
    assert not br.allow()


def test_breaker_half_open_probe_closes_on_success():
    br, clock = fresh_breaker(failure_threshold=1, open_backoff_us=100.0)
    br.record_failure()
    assert br.state == BREAKER_OPEN
    clock.now = 99.0 * US
    assert not br.allow()  # still inside the open window
    clock.now = 100.0 * US
    assert br.allow()  # the caller's post is the probe
    assert br.state == BREAKER_HALF_OPEN
    br.record_success()
    assert br.state == BREAKER_CLOSED
    assert br.allow()


def test_breaker_failed_probe_reopens_with_grown_backoff():
    br, clock = fresh_breaker(
        failure_threshold=1, open_backoff_us=100.0, backoff_factor=2.0,
        max_backoff_us=300.0,
    )
    br.record_failure()
    first_window = br.open_until - clock.now
    clock.now = br.open_until
    assert br.allow() and br.state == BREAKER_HALF_OPEN
    br.record_failure()  # probe failed
    assert br.state == BREAKER_OPEN
    assert br.open_until - clock.now == pytest.approx(2.0 * first_window)
    # growth is capped at max_backoff_us
    clock.now = br.open_until
    br.allow()
    br.record_failure()
    assert (br.open_until - clock.now) / US == pytest.approx(300.0)


def test_breaker_success_clears_failure_streak():
    br, _ = fresh_breaker(failure_threshold=2)
    br.record_failure()
    br.record_success()  # streak broken: consecutive failures only
    br.record_failure()
    assert br.state == BREAKER_CLOSED


def test_breaker_trip_opens_immediately():
    br, _ = fresh_breaker(failure_threshold=5)
    br.trip()
    assert br.state == BREAKER_OPEN
    br.trip()  # idempotent while open
    assert br.n_opens == 1


# ---------------------------------------------------------------- monitor
def test_live_rail_skips_tripped_breakers_and_reports_dark_plane():
    job, unr, _ = make_unr(health=True)
    health = unr.health
    assert isinstance(health, HealthMonitor)
    assert health.live_rail(0, 1, 0) == 0
    health.breaker(0, 1, 0).trip()
    assert health.live_rail(0, 1, 0) == 1  # failover to the other rail
    health.breaker(0, 1, 1).trip()
    assert health.live_rail(0, 1, 0) is None  # RMA plane fully dark
    assert not health.fallback_dead(0, 1)  # ordered lane still up
    snap = health.snapshot()
    assert snap["breakers"]["0->1/rail0"]["state"] == BREAKER_OPEN


# ------------------------------------------------------- heartbeat ledger
def test_heartbeat_ledger_records_and_counts_missed_periods():
    job, unr, _ = make_unr(health=True)
    health = unr.health
    env = job.env
    assert health.last_heartbeat(0, 1) is None
    # Before any beat: no silence evidence, so never any missed periods.
    assert health.missed_heartbeats(0, 1, period=25.0 * US) == 0

    health.record_heartbeat(0, 1)
    assert health.last_heartbeat(0, 1) == env.now
    assert health.missed_heartbeats(0, 1, period=25.0 * US) == 0
    assert unr.stats["heartbeats_seen"] == 1

    env.run(until=env.now + 80.0 * US)  # 3 whole periods of silence
    assert health.missed_heartbeats(0, 1, period=25.0 * US) == 3
    # The edge is directed: the reverse direction has no evidence.
    assert health.last_heartbeat(1, 0) is None
    assert health.missed_heartbeats(1, 0, period=25.0 * US) == 0

    # A fresh beat clears the silence count.
    health.record_heartbeat(0, 1)
    assert health.missed_heartbeats(0, 1, period=25.0 * US) == 0
    assert unr.stats["heartbeats_seen"] == 2


# ------------------------------------------------------- degrade/repromote
def endpoint_down_run(*, trace=False, iters=14):
    results = {}
    job, unr, tr = make_unr(
        faults=FaultSpec(endpoint_downs=(EndpointDown(40.0, 120.0, node=1),)),
        trace=trace,
        reliability=True,
        health=True,
    )
    run_job(job, stream_program(unr, results, size=200_000, iters=iters))
    return unr, results, tr


def test_endpoint_down_degrades_then_repromotes():
    unr, results, _ = endpoint_down_run()
    assert all(results.values()) and len(results) == 14
    stats = unr.stats
    assert stats["degraded_ops"] > 0, "no op ever used the fallback lane"
    assert stats["fallback_posts"] > 0
    assert stats["degradations"] >= 1
    assert stats["repromotions"] >= 1, "RMA plane never re-promoted"
    assert stats["breaker_opens"] >= 1
    assert stats["breaker_closes"] >= 1
    assert not unr.health.degraded_since  # nothing left degraded
    window = unr.health.recovery_log[0]
    assert window["degraded_at_us"] >= 40.0
    assert window["duration_us"] > 0.0


def test_endpoint_down_runs_are_fingerprint_identical():
    fps = [
        transfer_fingerprint(endpoint_down_run(trace=True)[2].transfers)
        for _ in range(2)
    ]
    assert fps[0] == fps[1], "degradation/re-promotion is not deterministic"


def test_armed_healthy_run_is_fingerprint_neutral():
    """With no faults, arming the health layer must not move one event."""

    def run(health):
        results = {}
        job, unr, tr = make_unr(trace=True, reliability=True, health=health)
        run_job(job, stream_program(unr, results, size=100_000, iters=6))
        assert all(results.values())
        return transfer_fingerprint(tr.transfers)

    assert run(health=False) == run(health=True)


def test_link_flap_recovers_without_degrading():
    results = {}
    job, unr, _ = make_unr(
        faults=FaultSpec(
            link_flaps=(LinkFlap(10.0, 30.0, node=1, rail=0, n_flaps=2),),
        ),
        reliability=True,
        health=True,
    )
    run_job(job, stream_program(unr, results, size=200_000, iters=10))
    assert all(results.values()) and len(results) == 10
    # the second rail absorbed the flaps: no op needed the fallback lane
    assert unr.stats["degraded_ops"] == 0


# ---------------------------------------------------------------- fail-stop
def test_node_crash_raises_peer_dead_and_drains_cleanly():
    results = {}
    job, unr, _ = make_unr(
        faults=FaultSpec(node_crashes=(NodeCrash(50.0, node=1),)),
        reliability=ReliabilityConfig(max_retries=2),
        health=True,
        sanitize=True,
    )
    with pytest.raises(UnrPeerDeadError) as excinfo:
        run_job(job, stream_program(unr, results, size=100_000, iters=8))
    ctx = excinfo.value.context
    assert ctx is not None
    assert ctx.kind == "PUT"
    assert (ctx.src_rank, ctx.dst_rank) == (0, 1)
    assert ctx.attempts, "armed watchdog must record its attempt ladder"
    assert all(t >= 0.0 for _, t in ctx.attempts)
    assert "declared dead" in str(excinfo.value)
    # drain (via finalize) discharges the dead fragments' tokens: the
    # sanitizer must not report the shortfall as a leak.
    report = unr.finalize()
    assert unr.stats["drained_fragments"] >= 1
    assert report.ok, report.format()


def test_disarmed_reliability_fails_fast_with_post_time_context():
    """Without retransmission there is no token-safe degradation path:
    the post itself must raise, with an empty attempt ladder."""
    job, unr, _ = make_unr(
        faults=FaultSpec(node_crashes=(NodeCrash(50.0, node=1),)),
        health=True,
    )
    size = 100_000

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(8)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            for _ in range(8):
                ep.put(blk, rmt)
                yield ctx.env.timeout(20.0 * US)
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            yield ctx.env.timeout(500.0 * US)
        return ctx.env.now

    with pytest.raises(UnrPeerDeadError) as excinfo:
        run_job(job, program)
    ctx = excinfo.value.context
    assert ctx is not None and ctx.attempts == ()
    assert "rejected at post time" in str(excinfo.value)


def test_timeout_context_survives_reraise_through_sig_wait():
    """The structured context must reach the application frame that sat
    in ``sig_wait`` — not just the watchdog's own stack."""
    results = {}
    job, unr, _ = make_unr(
        nics=1,
        faults=FaultSpec(drop=1.0, seed=1),
        reliability=ReliabilityConfig(max_retries=2),
    )
    caught = {}

    def program(ctx):
        # The lost fragment owes the *receiver* its notification, so the
        # error surfaces in rank 1's sig_wait frame.
        try:
            yield from stream_program(unr, results, size=100_000, iters=1)(ctx)
        except UnrTimeoutError as exc:
            caught[ctx.rank] = exc
            raise

    with pytest.raises(UnrTimeoutError):
        run_job(job, program)
    exc = caught[1]
    assert exc.context is not None
    assert exc.context.kind == "PUT"
    assert exc.context.nbytes == 100_000
    assert len(exc.context.attempts) == 3  # first post + 2 retransmits
    assert exc.context.sim_time_us > 0.0
    assert "attempts:" in str(exc)


# ---------------------------------------------------------------- compound
def test_compound_rail_fail_and_cq_stall_on_same_peer():
    """A dead rail plus a stalled CQ on the survivor, concurrently."""
    results = {}
    job, unr, _ = make_unr(
        faults=FaultSpec(
            rail_failures=(RailFailure(10.0, node=1, rail=0),),
            cq_stalls=(CqStall(15.0, 40.0, node=1, rail=1),),
        ),
        reliability=True,
        health=True,
    )
    run_job(job, stream_program(unr, results, size=200_000, iters=10))
    assert all(results.values()) and len(results) == 10


def test_endpoint_recovery_mid_plan_replay():
    """A recorded plan keeps replaying correctly across the degradation
    window — the plan replays resolve their rail at post time."""
    size, iters = 200_000, 14
    results = {}
    job, unr, _ = make_unr(
        faults=FaultSpec(endpoint_downs=(EndpointDown(40.0, 120.0, node=1),)),
        reliability=True,
        health=True,
    )

    def pattern(it):
        return ((np.arange(size) * 13 + it) % 251).astype(np.uint8)

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            plan = ep.plan().record_put(blk, rmt)
            for it in range(iters):
                buf[:] = pattern(it)
                plan.start()
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.recv_ctl(1, tag="credit")
            plan.free()
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            for it in range(iters):
                yield from ep.sig_wait(sig)
                results[it] = np.array_equal(buf, pattern(it))
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="credit")
        return ctx.env.now

    run_job(job, program)
    assert all(results.values()) and len(results) == iters
    assert unr.stats["degraded_ops"] > 0
    assert unr.stats["repromotions"] >= 1


def test_get_stream_degrades_when_both_rails_are_dead():
    """Every GET finds the RMA plane dark and is emulated over the MPI
    fallback lane, with its notifications applied in software."""
    results = {}
    job, unr, tr = make_unr(
        faults=FaultSpec(rail_failures=(
            RailFailure(0.0, node=1, rail=0),
            RailFailure(0.0, node=1, rail=1),
        )),
        trace=True,
        reliability=True,
        health=True,
    )
    run_job(job, get_stream_program(unr, results, size=50_000, iters=6))
    assert all(results.values()) and len(results) == 6
    stats = unr.stats
    assert (stats["gets"], stats["fallback_posts"], stats["degraded_ops"]) == (6, 6, 6)
    assert transfer_fingerprint(tr.transfers) == (
        "5284728403e4883ba5982f54a213bfe5b36db1292ca58fbd08f33d13c7e97456"
    )


# ---------------------------------------------------------------- drain API
def test_drain_is_a_noop_on_healthy_runs():
    results = {}
    job, unr, _ = make_unr(reliability=True, health=True)
    run_job(job, stream_program(unr, results, size=50_000, iters=3))
    assert unr.drain() == 0
    assert unr.stats["drained_fragments"] == 0
    assert all(results.values())


def test_fallback_rail_sentinel_is_distinct():
    assert FALLBACK_RAIL == -1
