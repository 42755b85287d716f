"""Reliability-layer tests: idempotence, retry, timeout, rail failover."""

import numpy as np
import pytest

from repro.core import (
    Signal,
    Unr,
    UnrTimeoutError,
    submessage_addends,
)
from repro.netsim import (
    Cluster,
    ClusterSpec,
    CompletionRecord,
    FabricSpec,
    FaultInjector,
    FaultSpec,
    NicSpec,
    NodeCrash,
    NodeSpec,
    RailFailure,
)
from repro.core.reliability import MAX_RETRIES, TIMEOUT_FACTOR, TIMEOUT_US, fragment_timeout
from repro.netsim.trace import transfer_fingerprint
from repro.obs import Recorder
from repro.platforms import make_job
from repro.runtime import Job, run_job
from repro.sim import Environment
from repro.units import US


def make_unr(channel="glex", n_nodes=2, nics=1, faults=None, **kw):
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
    inj = None
    if faults is not None:
        inj = FaultInjector.attach(job.cluster, faults)
    return job, Unr(job, channel, **kw), inj


def stream_program(unr, results, *, size, iters):
    """Rank 0 streams patterned buffers to rank 1 with credit flow."""

    def pattern(it):
        return ((np.arange(size) * 13 + it) % 251).astype(np.uint8)

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            buf = np.zeros(size, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, size, signal=sig)
            rmt = yield from ep.recv_ctl(1, tag="addr")
            for it in range(iters):
                buf[:] = pattern(it)
                ep.put(blk, rmt)
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.recv_ctl(1, tag="credit")
        else:
            buf = np.zeros(size, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, size, signal=sig)
            yield from ep.send_ctl(0, blk, tag="addr")
            for it in range(iters):
                yield from ep.sig_wait(sig)
                results[it] = np.array_equal(buf, pattern(it))
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="credit")
        return ctx.env.now

    return program


def get_stream_program(unr, results, *, size, iters, notified=None):
    """Rank 0 pulls patterned buffers from rank 1 with credit flow.

    Rank 1 refills its buffer only after its block signal says the read
    completed.  ``notified`` collects, per GET, whether rank 0's buffer
    already held the data when rank 1 was notified."""

    def pattern(it):
        return ((np.arange(size) * 7 + 3 * it) % 251).astype(np.uint8)

    bufs = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        buf = bufs[ctx.rank] = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            for it in range(iters):
                yield from ep.recv_ctl(1, tag="ready")
                ep.get(blk, rmt)
                yield from ep.sig_wait(sig)
                results[it] = np.array_equal(buf, pattern(it))
                ep.sig_reset(sig)
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            for it in range(iters):
                buf[:] = pattern(it)
                yield from ep.send_ctl(0, "ready", tag="ready")
                yield from ep.sig_wait(sig)  # the read of this buffer completed
                if notified is not None:
                    notified.append(np.array_equal(bufs[0], pattern(it)))
                ep.sig_reset(sig)
        return ctx.env.now

    return program


# ---------------------------------------------------------------- idempotence
def test_signal_duplicate_token_is_noop():
    env = Environment()
    sig = Signal(env, sid=0, num_event=2)
    assert sig.add(-1, token="a") is False
    assert sig.remaining_events == 1
    # Re-delivery of the same completion: counter must not move.
    assert sig.add(-1, token="a") is False
    assert sig.remaining_events == 1
    assert sig.n_duplicates == 1
    assert sig.add(-1, token="b") is True
    assert sig.is_zero


def test_signal_tokenless_adds_never_deduped():
    env = Environment()
    sig = Signal(env, sid=0, num_event=3)
    for _ in range(3):
        sig.add(-1)  # fast path: no tokens, no history
    assert sig.is_zero
    assert sig.n_duplicates == 0


def test_signal_dedup_window_is_made_on_the_first_token():
    """A signal that only ever sees tokenless adds holds no window; the
    first token creates it."""
    env = Environment()
    sig = Signal(env, sid=0, num_event=4)
    sig.add(-1)
    sig._reset_counter()
    sig.add(-1, token=None)
    assert sig._seen_tokens is None and sig._seen_order is None
    assert sig.add(-1, token="t") is False  # applied, not yet at zero
    assert sig._seen_tokens == {"t"} and list(sig._seen_order) == ["t"]
    assert sig.add(-1, token="t") is False and sig.n_duplicates == 1
    assert sig.remaining_events == 2


def test_signal_token_survives_reset():
    """A late duplicate from before sig_reset must still be suppressed."""
    env = Environment()
    sig = Signal(env, sid=0, num_event=1)
    assert sig.add(-1, token="x") is True
    sig._reset_counter()
    assert sig.add(-1, token="x") is False  # stale replay
    assert sig.remaining_events == 1
    assert sig.add(-1, token="y") is True


def test_signal_token_window_is_bounded():
    env = Environment()
    sig = Signal(env, sid=0, num_event=100)
    for i in range(Signal.TOKEN_WINDOW + 50):
        sig.accept(i)
    assert len(sig._seen_tokens) == Signal.TOKEN_WINDOW
    assert sig.accept(Signal.TOKEN_WINDOW + 49) is False  # recent: remembered
    assert sig.accept(0) is True  # ancient: aged out of the window


def test_striped_duplicates_via_handle_record():
    """Duplicate CQ records for striped sub-messages must not double-count."""
    job, unr, _ = make_unr(nics=2)
    ep = unr.endpoint(1)
    sig = ep.sig_init(1)
    addends = submessage_addends(2, unr.n_bits)
    from repro.core.levels import encode_custom

    node = unr._node_index(1)
    progress, nic = unr.engines[node], job.nic_of(1)
    for i, a in enumerate(addends):
        rec = CompletionRecord(
            kind="put_remote",
            custom=encode_custom(sig.sid, a, unr.put_remote_policy),
            token=("frag", i),
        )
        progress._dispatch(nic, rec)
        progress._dispatch(nic, rec)  # replayed by the fabric
    assert sig.is_zero
    assert not sig.overflow_bit
    assert unr.stats["duplicates_suppressed"] == 2
    assert unr.stats["adds_applied"] == 2


def test_duplicates_end_to_end():
    """dup=1.0: every fragment delivered twice, counters still exact."""
    results = {}
    job, unr, inj = make_unr(
        nics=2, faults=FaultSpec(duplicate=1.0, reorder=0.5, seed=2),
        reliability=True,
    )
    run_job(job, stream_program(unr, results, size=200_000, iters=4))
    assert all(results.values()) and len(results) == 4
    assert inj.stats["duplicated"] > 0
    assert unr.stats["duplicates_suppressed"] > 0
    assert unr.stats["sync_errors"] == 0


# ------------------------------------------------------------------- retries
def test_retry_until_success_under_30pct_drop():
    results = {}
    job, unr, inj = make_unr(
        nics=2, faults=FaultSpec(drop=0.3, reorder=0.3, seed=7),
        reliability=True,
    )
    run_job(job, stream_program(unr, results, size=300_000, iters=6))
    assert all(results.values()) and len(results) == 6
    assert inj.stats["dropped"] > 0, "schedule never dropped — test is vacuous"
    assert unr.stats["retransmits"] > 0
    assert unr.stats["reliability_failures"] == 0


@pytest.mark.parametrize("seed", range(5))
def test_retry_seed_sweep(seed):
    """Property loop: correctness holds for any drop schedule seed."""
    results = {}
    job, unr, _ = make_unr(
        nics=2, faults=FaultSpec(drop=0.3, duplicate=0.2, reorder=0.4, seed=seed),
        reliability=True,
    )
    run_job(job, stream_program(unr, results, size=150_000, iters=3))
    assert all(results.values()) and len(results) == 3, f"failed for seed={seed}"


def test_unreliable_mode_loses_data_under_drop():
    """Sanity: without the reliability layer the same schedule wedges or
    loses messages — the layer is doing real work.  (The receiver would
    wait forever, so only the sender's local view is checked.)"""
    job, unr, inj = make_unr(faults=FaultSpec(drop=1.0, seed=1))
    assert unr.reliability is False  # off by default

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            buf = np.ones(50_000, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            blk = ep.blk_init(mr, 0, 50_000)
            rmt = yield from ep.recv_ctl(1, tag="addr")
            ep.put(blk, rmt)
            yield ctx.env.timeout(0.01)
        else:
            buf = np.zeros(50_000, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 50_000, signal=sig)
            yield from ep.send_ctl(0, blk, tag="addr")
            yield ctx.env.timeout(0.01)
            assert not sig.is_zero  # never notified
            assert not buf.any()  # never written
        return ctx.env.now

    run_job(job, program)
    assert inj.stats["dropped"] >= 1


# ------------------------------------------------------------------- timeout
def test_timeout_raises_instead_of_hanging():
    results = {}
    job, unr, _ = make_unr(
        faults=FaultSpec(drop=1.0, seed=1), reliability=True,
    )
    with pytest.raises(UnrTimeoutError, match=f"no delivery after {MAX_RETRIES} retransmits"):
        run_job(job, stream_program(unr, results, size=100_000, iters=1))
    assert unr.stats["retransmits"] == MAX_RETRIES
    assert unr.stats["reliability_failures"] >= 1


def test_get_timeout_raises():
    job, unr, _ = make_unr(
        faults=FaultSpec(drop=1.0, seed=4), reliability=True,
    )

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            buf = np.zeros(50_000, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 50_000, signal=sig)
            rmt = yield from ep.recv_ctl(1, tag="addr")
            ep.get(blk, rmt)
            yield from ep.sig_wait(sig)
        else:
            buf = np.ones(50_000, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            blk = ep.blk_init(mr, 0, 50_000)
            yield from ep.send_ctl(0, blk, tag="addr")
            yield ctx.env.timeout(1.0)
        return ctx.env.now

    with pytest.raises(UnrTimeoutError, match="GET"):
        run_job(job, program)


#: GET streams under drops and duplicates (the same schedule for both)
GET_FAULTS = dict(drop=0.3, duplicate=0.1, seed=8)


def test_reliable_get_stream_under_drop_and_dup():
    """glex: the remote add rides the read's custom bits, so every
    attempt that reaches the target notifies it, and the token keeps
    the count single."""
    results = {}
    job, unr, inj = make_unr(nics=2, faults=FaultSpec(**GET_FAULTS), reliability=True)
    recorder = Recorder.attach(job.cluster)
    run_job(job, get_stream_program(unr, results, size=50_000, iters=12))
    assert all(results.values()) and len(results) == 12
    assert inj.stats["dropped"] > 0 and inj.stats["duplicated"] > 0
    assert unr.stats["gets"] == 12
    assert (unr.stats["retransmits"], unr.stats["duplicates_suppressed"]) == (10, 2)
    assert unr.stats["sync_errors"] == unr.stats["overflow_errors"] == 0
    assert transfer_fingerprint(recorder.transfers) == (
        "491138f046d425899b206e5edc1d31298eb5c5e42d42b4d54f5e1ea742cd9007"
    )


def test_reliable_get_level0_tail_notifies_once_after_delivery():
    """verbs has no GET-remote bits: the target hears of each read from
    a Level-0 ctrl message sent once the data landed — exactly once per
    GET, however many attempts the read took."""
    results, notified = {}, []
    job, unr, inj = make_unr(
        "verbs", nics=2, faults=FaultSpec(**GET_FAULTS), reliability=True
    )
    remote_adds = []
    apply_add = unr._apply_add

    def spy(node, sid, addend, token=None):
        if node == unr._node_index(1):
            remote_adds.append((job.env.now, token))
        apply_add(node, sid, addend, token=token)

    unr._apply_add = spy
    run_job(job, get_stream_program(unr, results, size=50_000, iters=12,
                                    notified=notified))
    assert all(results.values()) and len(results) == 12
    assert inj.stats["dropped"] > 0 and unr.stats["retransmits"] == 10
    assert unr.stats["ctrl_msgs"] == 12
    assert len(remote_adds) == 12 and all(tok is None for _, tok in remote_adds)
    assert notified == [True] * 12
    assert unr.stats["sync_errors"] == unr.stats["overflow_errors"] == 0


def test_fragment_timeout_scales_with_size():
    small = fragment_timeout(1e-6)
    large = fragment_timeout(100e-6)
    assert small == TIMEOUT_US * 1e-6  # floor
    assert large == pytest.approx(TIMEOUT_FACTOR * 100e-6)
    assert large > small


# -------------------------------------------------------------- rail failover
def test_rail_failover_mid_flight():
    """A rail dying mid-run migrates traffic to the survivor."""
    results = {}
    job, unr, inj = make_unr(
        nics=2,
        faults=FaultSpec(rail_failures=(RailFailure(time_us=25.0, node=1, rail=0),),
                         seed=3),
        reliability=True,
    )
    run_job(job, stream_program(unr, results, size=300_000, iters=6))
    assert all(results.values()) and len(results) == 6
    assert inj.stats["rail_failures"] == 1
    # Something was killed or blocked on the dead rail, and recovered.
    assert unr.stats["retransmits"] > 0
    assert job.cluster.nodes[1].nics[0].failed


def test_live_rail_skips_failed():
    job, unr, _ = make_unr(nics=2, reliability=True)
    ladder = unr.engine.reliable
    op = unr.engine.prepare_ctrl(0, 1)
    assert ladder._next_rail(op, 0) == 0
    job.nic_of(1, 0).failed = True
    assert ladder._next_rail(op, 0) == 1
    assert ladder.n_failovers == 1
    job.nic_of(0, 1).failed = True  # rail 1 dead on *our* end too
    assert ladder._next_rail(op, 0) == 0  # nothing alive: fall back, watchdog raises


def test_all_rails_dead_times_out():
    results = {}
    job, unr, _ = make_unr(
        nics=2,
        faults=FaultSpec(rail_failures=(
            RailFailure(time_us=0.0, node=1, rail=0),
            RailFailure(time_us=0.0, node=1, rail=1),
        ), seed=3),
        reliability=True,
    )
    with pytest.raises(UnrTimeoutError):
        run_job(job, stream_program(unr, results, size=100_000, iters=1))


# ---------------------------------------------------------------- defaults
def test_reliability_true_uses_default_config():
    """``True`` arms the layer; its policy is the module's constants."""
    _, unr, _ = make_unr(reliability=True)
    assert unr.reliability is True
    _, unr, _ = make_unr(reliability=False)
    assert unr.reliability is False


def test_reliable_run_without_faults_is_clean():
    """The reliability layer on a healthy fabric: zero retransmits, exact
    results — the watchdogs are pure overhead, never interference."""
    results = {}
    job, unr, _ = make_unr(nics=2, reliability=True)
    run_job(job, stream_program(unr, results, size=200_000, iters=4))
    assert all(results.values()) and len(results) == 4
    assert unr.stats["retransmits"] == 0
    assert unr.stats["sync_errors"] == 0


@pytest.mark.parametrize("kind", ["put", "get"])
def test_retransmit_repeats_the_first_attempt_exactly(monkeypatch, kind):
    """Every wire attempt of a fragment goes through ``_attempt`` with
    the plan, payload snapshot, delivery callback and tokens of its
    first attempt.  A PUT re-arms the same send-completion add per
    attempt, which the token keeps single; a GET arms its local add
    once, on delivery."""
    from repro.interconnect import Capability, RmaChannel

    # Remote PUT custom bits only: the local notification is applied
    # when the send or read completes (``StripePlan.local_done_add``),
    # a GET's remote one by a Level-0 tail.
    no_local_bits = Capability(
        interface="T", interconnect="t", systems="t",
        put_local=0, put_remote=64, get_local=0, get_remote=0,
    )

    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=4, nics=1),
        NicSpec(bandwidth_gbps=100, latency_us=1.0),
        FabricSpec(routing_jitter=0.3), seed=11,
    )
    job = Job(Cluster(env, spec), ranks_per_node=1)
    inj = FaultInjector.attach(job.cluster, FaultSpec(drop=0.5, seed=3))
    unr = Unr(job, RmaChannel(job, no_local_bits), reliability=True)
    engine = unr.engine

    attempts = {}  # fragment (by its tokens) -> [call, ...]
    real_attempt = engine._attempt

    def spy_attempt(op, sp, payload, deliver, rtok, ltok, rail):
        snapshot = None if payload is None else payload.tobytes()
        attempts.setdefault((rtok, ltok), []).append((sp, payload, snapshot, deliver))
        return real_attempt(op, sp, payload, deliver, rtok, ltok, rail)

    done_adds = []
    real_callback = engine._add_callback

    def spy_callback(spec, token):
        done_adds.append((spec, token))
        return real_callback(spec, token)

    monkeypatch.setattr(engine, "_attempt", spy_attempt)
    monkeypatch.setattr(engine, "_add_callback", spy_callback)

    results = {}
    program = stream_program if kind == "put" else get_stream_program
    run_job(job, program(unr, results, size=4096, iters=8))
    assert all(results.values()) and len(results) == 8
    assert inj.stats["dropped"] > 0 and unr.stats["retransmits"] > 0

    assert len(attempts) == 8
    assert sum(len(calls) for calls in attempts.values()) == 8 + unr.stats["retransmits"]
    for (_rtok, ltok), calls in attempts.items():
        sp, payload, snapshot, deliver = calls[0]
        assert sp.local_done_add is not None and ltok is not None
        assert (payload is None) == (kind == "get")
        for again in calls[1:]:
            assert again[0] is sp and again[1] is payload and again[3] is deliver
            assert again[2] == snapshot
    # The local add armed per PUT attempt, once per GET: always the
    # fragment's own, with its own token.
    armed = [
        (c[0].local_done_add, ltok)
        for (_rtok, ltok), calls in attempts.items()
        for c in (calls if kind == "put" else calls[:1])
    ]
    assert sorted(done_adds, key=lambda a: a[1]) == sorted(armed, key=lambda a: a[1])
    if kind == "put":
        assert unr.stats["duplicates_suppressed"] > 0


# ------------------------------------------------------------ replay identity
#: the PR 1 fault-stress schedule (th-xy has two rails: the rail failure
#: exercises failover rather than killing the only lane)
STRESS = "drop=0.2,dup=0.1,reorder=0.3,rail_fail@t=40:node=1:rail=0"


def _observed_stream(faults):
    """One credit-flowed dual-rail-striped PUT stream: its wire
    fingerprint and every signal add with its idempotence token."""
    job = make_job("th-xy", 2, seed=0xC0FFEE)
    if faults is not None:
        FaultInjector.attach(job.cluster, FaultSpec.parse(faults, seed=5))
    recorder = Recorder.attach(job.cluster)
    unr = Unr(job, "glex", reliability=True, sanitize=True)
    adds = []
    apply_add = unr._apply_add

    def spy(node, sid, addend, token=None):
        adds.append((node, sid, addend, token))
        apply_add(node, sid, addend, token=token)

    unr._apply_add = spy
    results = {}
    run_job(job, stream_program(unr, results, size=65536, iters=3))
    report = unr.finalize()
    assert all(results.values()) and len(results) == 3
    assert report is not None and report.ok
    assert unr.stats["fragments"] == 2 * unr.stats["puts"] == 6
    assert not unr.engine.reliable._inflight  # every fragment delivered and retired
    return transfer_fingerprint(recorder.transfers), adds


@pytest.mark.parametrize("faults", [None, STRESS], ids=["healthy", "fault-stress"])
def test_same_seed_replay_is_identical(faults):
    """Two runs on one seed: the same wire, the same token stream."""
    fingerprint, adds = _observed_stream(faults)
    assert adds and all(token is not None for *_spec, token in adds)
    assert _observed_stream(faults) == (fingerprint, adds)


# ------------------------------------------------------------------ watchdog
def _shared_blk_program(unr, blks, body):
    """Both ranks register a 4 KiB block with a signal and publish it in
    ``blks`` (no control-lane handshake); then ``body(ctx, ep, sig)``."""

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        sig = ep.sig_init(1)
        blks[ctx.rank] = ep.blk_init(
            ep.mem_reg(np.zeros(4096, dtype=np.uint8)), 0, 4096, signal=sig
        )
        yield from body(ctx, ep, sig)

    return program


def test_delivered_fragment_retires_at_its_delivery_instant():
    """The first delivery of a fragment retires it on the spot: it is
    in ``_inflight`` as the callback starts and gone as it returns.
    Duplicates and late retransmits find it retired."""
    job, unr, inj = make_unr(
        nics=2, faults=FaultSpec(drop=0.2, duplicate=0.1, reorder=0.3, seed=8),
        reliability=True, health=True,
    )
    engine = unr.engine
    calls = []  # per delivery callback: (in flight before, in flight after)

    def in_flight(rtok, ltok):
        return any((f.rtok, f.ltok) == (rtok, ltok) for f in engine.reliable._inflight)

    def on_post(op, sp, rail, attempt, rtok, ltok, deliver):
        if sp is None or attempt:
            return deliver

        def spy(data):
            before = in_flight(rtok, ltok)
            deliver(data)
            calls.append((before, in_flight(rtok, ltok)))

        return spy

    engine.on_post = on_post
    results = {}
    run_job(job, stream_program(unr, results, size=200_000, iters=4))
    assert all(results.values()) and len(results) == 4
    assert inj.stats["dropped"] and inj.stats["duplicated"] and unr.stats["retransmits"]
    assert calls.count((True, False)) == unr.stats["fragments"]
    assert len(calls) > unr.stats["fragments"]  # replicas did arrive
    assert all(not after for _, after in calls)
    assert not engine.reliable._inflight


def test_drained_fragment_timer_stands_down():
    """A fragment lost to a crashed peer and cancelled by ``drain()``
    before its timeout: the timer still fires, and stands down — no
    timeout fed to the breakers, no retransmit, no error."""
    job, unr, inj = make_unr(
        faults=FaultSpec(duplicate=0.1, reorder=0.3, seed=5,
                         node_crashes=(NodeCrash(20.5, node=1),)),
        reliability=True, health=True,
    )
    blks, drained = {}, []

    def body(ctx, ep, sig):
        if ctx.rank == 0:
            yield ctx.env.timeout(20.0 * US)
            ep.put(blks[0], blks[1], local_signal=None)  # lands after the crash
            yield ctx.env.timeout(20.0 * US)  # crashed, not yet timed out
            drained.append(unr.drain(1))
            yield ctx.env.timeout(500.0 * US)

    run_job(job, _shared_blk_program(unr, blks, body))
    assert drained == [1]
    assert inj.stats["killed_in_flight"] == 1
    assert unr.stats["drained_fragments"] == 1
    assert unr.stats.get("retransmits", 0) == 0
    assert unr.stats.get("health_timeouts", 0) == 0
    assert unr.stats.get("reliability_failures", 0) == 0
    assert not unr.engine.reliable._inflight


#: the ladder of one 4 KiB PUT on one rail with health armed when every
#: lane, the ordered one too, drops everything — recorded while each
#: watchdog was a generator process.
EXHAUSTED_ATTEMPTS = (
    ("rail0", 1.0), ("rail0", 26.0), ("fallback", 76.0), ("rail0", 176.0),
    ("fallback", 376.0), ("rail0", 776.0), ("fallback", 1576.0), ("rail0", 3176.0),
    ("fallback", 5176.0), ("rail0", 7176.0), ("fallback", 9176.0),
)
EXHAUSTED_MESSAGE = (
    "PUT of 4096B from rank 0 to rank 1: no delivery after 10 retransmits "
    "(last timeout 2000.0 us)\n  op=PUT rank0->rank1 4096B | attempts: "
    "rail0@1.0us -> rail0@26.0us -> fallback@76.0us -> rail0@176.0us -> "
    "fallback@376.0us -> rail0@776.0us -> fallback@1576.0us -> rail0@3176.0us -> "
    "fallback@5176.0us -> rail0@7176.0us -> fallback@9176.0us | "
    "degraded (fallback lane reached) | declared dead at t=11176.0us"
)


def test_exhausted_ladder_matches_the_recorded_one():
    """MAX_RETRIES retransmits over the rail and the fallback lane, then
    the error in the receiver's ``sig_wait`` with the whole ladder."""
    job, unr, inj = make_unr(
        faults=FaultSpec(drop=1.0, duplicate=0.1, reorder=0.3, fault_ordered=True, seed=7),
        reliability=True, health=True,
    )
    blks, caught = {}, []

    def body(ctx, ep, sig):
        if ctx.rank == 0:
            yield ctx.env.timeout(1.0 * US)
            ep.put(blks[0], blks[1], local_signal=None)
        else:
            try:
                yield from ep.sig_wait(sig)
            except UnrTimeoutError as exc:
                caught.append(exc)

    run_job(job, _shared_blk_program(unr, blks, body))
    (exc,) = caught
    assert type(exc) is UnrTimeoutError  # the fallback lane is alive: not PeerDead
    assert exc.context.attempts == EXHAUSTED_ATTEMPTS
    assert exc.context.degraded
    assert str(exc) == EXHAUSTED_MESSAGE
    assert unr.stats["retransmits"] == MAX_RETRIES
    assert unr.stats["reliability_failures"] == 1
    assert inj.stats["dropped"] == MAX_RETRIES + 1
