"""End-to-end tests of the UNR API across channels and support levels."""

import warnings

import numpy as np
import pytest

from repro.core import (
    PollingConfig,
    Unr,
    UnrSyncWarning,
    UnrUsageError,
)
from repro.core.polling import BUSY_INTERFERENCE
from repro.netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from repro.runtime import Job, run_job
from repro.sim import Environment

ALL_CHANNELS = ["glex", "verbs", "utofu", "ugni", "pami", "portals", "mpi"]


def make_unr(channel="glex", n_nodes=2, nics=1, ppn=1, offload=False, jitter=0.3, **kw):
    env = Environment()
    spec = ClusterSpec(
        "t",
        n_nodes,
        NodeSpec(cores=4, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0, atomic_offload=offload),
        FabricSpec(routing_jitter=jitter),
        seed=11,
    )
    job = Job(Cluster(env, spec), ranks_per_node=ppn)
    return job, Unr(job, channel, **kw)


def code2_pingpong(unr, job, size=4096, iters=3):
    """The paper's Code 2 pattern: sender PUTs, both sides use signals."""
    results = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:  # sender
            buf = np.arange(size, dtype=np.uint8) if size else np.zeros(1, np.uint8)
            mr = ep.mem_reg(buf)
            send_sig = ep.sig_init(1)
            send_blk = ep.blk_init(mr, 0, size, signal=send_sig)
            rmt_blk = yield from ep.recv_ctl(1, tag="addr")
            for _ in range(iters):
                ep.put(send_blk, rmt_blk)
                yield from ep.sig_wait(send_sig)
                ep.sig_reset(send_sig)
                ack = yield from ep.recv_ctl(1, tag="ack")  # pre-sync for next iter
                assert ack == "ok"
        else:  # receiver
            buf = np.zeros(size if size else 1, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            recv_sig = ep.sig_init(1)
            recv_blk = ep.blk_init(mr, 0, size, signal=recv_sig)
            yield from ep.send_ctl(0, recv_blk, tag="addr")
            for _ in range(iters):
                yield from ep.sig_wait(recv_sig)
                results["data"] = buf.copy()
                ep.sig_reset(recv_sig)
                yield from ep.send_ctl(0, "ok", tag="ack")
        return ctx.env.now

    times = run_job(job, program)
    return results, times


@pytest.mark.parametrize("channel", ALL_CHANNELS)
def test_code2_pingpong_all_channels(channel):
    job, unr = make_unr(channel)
    results, _ = code2_pingpong(unr, job, size=4096)
    np.testing.assert_array_equal(results["data"], np.arange(4096, dtype=np.uint8))


def test_code2_pingpong_level4_offload():
    job, unr = make_unr("glex", offload=True)
    assert unr.level == 4
    assert unr.polling_config.mode == "none"
    assert not unr.engines
    results, _ = code2_pingpong(unr, job, size=4096)
    np.testing.assert_array_equal(results["data"], np.arange(4096, dtype=np.uint8))


def test_put_data_integrity_large_striped():
    job, unr = make_unr("glex", nics=4, stripe_threshold=16 * 1024)
    results, _ = code2_pingpong(unr, job, size=1 << 20)
    expected = np.arange(1 << 20, dtype=np.uint8)
    np.testing.assert_array_equal(results["data"], expected)
    # Striping actually happened: more fragments than puts.
    assert unr.stats["fragments"] > unr.stats["puts"]


@pytest.mark.parametrize("size,fragments", [(4096, 1), (256 * 1024, 2)])
def test_put_payload_is_the_source_as_it_was_at_the_post(size, fragments):
    """The source may be repacked as soon as ``put()`` returns
    (``examples/producer_consumer.py`` does): the target receives the
    bytes as they were at the post, unstriped or striped."""
    job, unr = make_unr("glex", nics=2)
    posted = (np.arange(size) % 251).astype(np.uint8)
    received = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        buf = posted.copy() if ctx.rank == 0 else np.zeros(size, dtype=np.uint8)
        sig = ep.sig_init(1)
        blk = ep.blk_init(ep.mem_reg(buf), 0, size, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            ep.put(blk, rmt)
            buf[:] = 0xFF
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
        yield from ep.sig_wait(sig)
        received[ctx.rank] = buf.copy()

    run_job(job, program)
    assert unr.stats["fragments"] == fragments
    np.testing.assert_array_equal(received[1], posted)
    assert (received[0] == 0xFF).all()


@pytest.mark.parametrize("knobs", [
    {"max_stripe_rails": 0},
    {"max_stripe_rails": -1},
    {"stripe_threshold": -1},
])
def test_striping_knobs_out_of_range_rejected(knobs):
    with pytest.raises(UnrUsageError, match="|".join(knobs)):
        make_unr("glex", nics=2, **knobs)


def test_striping_disabled_below_threshold():
    job, unr = make_unr("glex", nics=4, stripe_threshold=1 << 20)
    code2_pingpong(unr, job, size=4096)
    assert unr.stats["fragments"] == unr.stats["puts"]


def test_verbs_mode1_never_stripes():
    job, unr = make_unr("verbs", nics=4, stripe_threshold=1024)
    code2_pingpong(unr, job, size=1 << 18)
    assert unr.stats["fragments"] == unr.stats["puts"]


def test_verbs_mode2_stripes():
    job, unr = make_unr("verbs", nics=2, stripe_threshold=1024, mode2_split=16)
    results, _ = code2_pingpong(unr, job, size=1 << 18)
    np.testing.assert_array_equal(
        results["data"], np.arange(1 << 18, dtype=np.uint8)
    )
    assert unr.stats["fragments"] > unr.stats["puts"]


def test_level0_ctrl_messages_used_by_utofu_degraded_signals():
    """Exceeding the 8-bit signal table of uTofu falls back to ctrl path."""
    job, unr = make_unr("utofu")

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            # Burn through the 256-entry wire-addressable table on node 0.
            for _ in range(256):
                ep.sig_init(1)
            yield ctx.env.timeout(0)
        else:
            yield ctx.env.timeout(0)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_job(job, program)
        # Next signal on node 0 is degraded.
        ep0 = unr.endpoint(0)
        sig = ep0.sig_init(1)
    assert sig.sid >= unr.sid_capacity
    assert any("Level-0" in str(w.message) for w in caught)


def test_get_moves_data_and_signals():
    job, unr = make_unr("glex")
    landed = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            buf = np.zeros(1024, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            local_blk = ep.blk_init(mr, 0, 1024, signal=sig)
            rmt = yield from ep.recv_ctl(1, tag="blk")
            ep.get(local_blk, rmt)
            yield from ep.sig_wait(sig)
            landed["data"] = buf.copy()
        else:
            buf = np.full(1024, 7, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 1024, signal=sig)
            yield from ep.send_ctl(0, blk, tag="blk")
            yield from ep.sig_wait(sig)  # remote GET notification

    run_job(job, program)
    np.testing.assert_array_equal(landed["data"], np.full(1024, 7, np.uint8))


def test_get_remote_notify_on_verbs_uses_ctrl():
    """Verbs has 0 GET-remote custom bits: UNR must still notify the
    target, via the control-message path."""
    job, unr = make_unr("verbs")

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            buf = np.zeros(64, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 64, signal=sig)
            rmt = yield from ep.recv_ctl(1, tag="blk")
            ep.get(blk, rmt)
            yield from ep.sig_wait(sig)
        else:
            buf = np.ones(64, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 64, signal=sig)
            yield from ep.send_ctl(0, blk, tag="blk")
            yield from ep.sig_wait(sig)

    run_job(job, program)
    assert unr.stats["ctrl_msgs"] >= 1


# --------------------------------------------------- bug-avoiding checks


def test_sig_reset_detects_early_arrival():
    """A message arriving before sig_reset is a synchronization error."""
    job, unr = make_unr("glex")

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            buf = np.zeros(64, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            blk = ep.blk_init(mr, 0, 64)
            rmt = yield from ep.recv_ctl(1, tag="blk")
            ep.put(blk, rmt)  # fires while receiver hasn't consumed
            yield ctx.env.timeout(1.0)
        else:
            buf = np.zeros(64, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 64, signal=sig)
            yield from ep.send_ctl(0, blk, tag="blk")
            yield from ep.sig_wait(sig)
            # Receiver "forgets" to consume + the sender already PUT again:
            # simulate by an extra add (early message), then reset.
            unr._apply_add(ctx.node.index, sig.sid, -1)
            with pytest.warns(UnrSyncWarning, match="counter"):
                ep.sig_reset(sig)

    run_job(job, program)
    assert unr.stats["sync_errors"] == 1


def test_sig_reset_warns_on_an_untriggered_signal():
    job, unr = make_unr("glex")
    ep = unr.endpoint(0)
    sig = ep.sig_init(1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ep.sig_reset(sig)  # counter == num_event != 0 → never triggered
    assert any(isinstance(w.message, UnrSyncWarning) for w in caught)


def test_sync_warning_raises_under_an_error_filter():
    """A caller who wants an exception asks the warning filter for one;
    the stat is counted before the warning is raised."""
    job, unr = make_unr("glex")
    ep = unr.endpoint(0)
    sig = ep.sig_init(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnrSyncWarning)
        with pytest.raises(UnrSyncWarning, match="counter"):
            ep.sig_reset(sig)
    assert unr.stats["sync_errors"] == 1


def test_sig_wait_detects_overflow():
    job, unr = make_unr("glex")

    def program(ctx):
        ep = unr.endpoint(0)
        sig = ep.sig_init(1)
        unr._apply_add(0, sig.sid, -1)
        unr._apply_add(0, sig.sid, -1)  # one event too many
        with pytest.warns(UnrSyncWarning, match="overflow"):
            yield from ep.sig_wait(sig)

    run_job(job, program, ranks=[0])
    assert unr.stats["overflow_errors"] == 1


def test_blk_bounds_checked():
    job, unr = make_unr("glex")
    ep = unr.endpoint(0)
    mr = ep.mem_reg(np.zeros(100, dtype=np.uint8))
    with pytest.raises(UnrUsageError):
        ep.blk_init(mr, 90, 20)
    with pytest.raises(UnrUsageError):
        ep.blk_init(mr, -1, 10)


def test_blk_wrong_owner_rejected():
    job, unr = make_unr("glex")
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    mr = ep0.mem_reg(np.zeros(10, dtype=np.uint8))
    with pytest.raises(UnrUsageError, match="cannot create"):
        ep1.blk_init(mr, 0, 10)


def test_put_size_mismatch_rejected():
    job, unr = make_unr("glex")
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    mr0 = ep0.mem_reg(np.zeros(100, dtype=np.uint8))
    mr1 = ep1.mem_reg(np.zeros(100, dtype=np.uint8))
    a = ep0.blk_init(mr0, 0, 50)
    b = ep1.blk_init(mr1, 0, 60)
    with pytest.raises(UnrUsageError, match="size mismatch"):
        ep0.put(a, b)


def test_put_foreign_source_rejected():
    job, unr = make_unr("glex")
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    mr1 = ep1.mem_reg(np.zeros(10, dtype=np.uint8))
    blk1 = ep1.blk_init(mr1, 0, 10)
    with pytest.raises(UnrUsageError, match="belongs to rank"):
        ep0.put(blk1, blk1)


def test_unregistered_blk_rejected():
    from repro.core import Blk

    job, unr = make_unr("glex")
    ep = unr.endpoint(0)
    mr = ep.mem_reg(np.zeros(10, dtype=np.uint8))
    good = ep.blk_init(mr, 0, 10)
    bad = Blk(rank=1, mr_handle=99, offset=0, size=10)
    with pytest.raises(UnrUsageError, match="unregistered"):
        ep.put(good, bad)


def test_signal_free_and_reuse():
    job, unr = make_unr("glex")
    ep = unr.endpoint(0)
    a = ep.sig_init(1)
    ep.sig_free(a)
    b = ep.sig_init(1)
    assert b.sid == a.sid  # slot reused
    with pytest.raises(UnrUsageError):
        ep.sig_free(a)  # double free


# ----------------------------------------------------------------- plans


def test_plan_records_and_replays():
    job, unr = make_unr("glex")
    iters = 4
    seen = []

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            buf = np.zeros(256, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 256, signal=sig)
            rmt = yield from ep.recv_ctl(1, tag="blk")
            plan = ep.plan().record_put(blk, rmt)
            assert len(plan) == 1
            for i in range(iters):
                buf[:] = i
                plan.start()
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.recv_ctl(1, tag="ack")
            assert plan.n_starts == iters
        else:
            buf = np.zeros(256, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 256, signal=sig)
            yield from ep.send_ctl(0, blk, tag="blk")
            for _ in range(iters):
                yield from ep.sig_wait(sig)
                seen.append(int(buf[0]))
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="ack")

    run_job(job, program)
    assert seen == list(range(iters))


def test_plan_merge_and_mixed_ops():
    job, unr = make_unr("glex")
    ep = unr.endpoint(0)
    mr = ep.mem_reg(np.zeros(64, dtype=np.uint8))
    blk = ep.blk_init(mr, 0, 64)
    p1 = ep.plan().record_put(blk, blk)
    p2 = ep.plan().record_get(blk, blk)
    p1.merge(p2)
    assert len(p1) == 2
    other = unr.endpoint(1).plan()
    with pytest.raises(ValueError):
        p1.merge(other)


# --------------------------------------------------------- polling modes


@pytest.mark.parametrize("mode", ["busy", "reserved", "interval"])
def test_polling_modes_all_deliver(mode):
    cfg = PollingConfig(mode=mode, interval_us=2.0, reserved_cores=1)
    job, unr = make_unr("glex", polling=cfg)
    results, _ = code2_pingpong(unr, job, size=2048)
    np.testing.assert_array_equal(results["data"], np.arange(2048, dtype=np.uint8))
    assert sum(e.n_dispatched for e in unr.engines) > 0


def test_interval_polling_adds_latency():
    def run_with(cfg):
        job, unr = make_unr("glex", polling=cfg, jitter=0.0)
        _, times = code2_pingpong(unr, job, size=2048, iters=5)
        return max(times)

    fast = run_with(PollingConfig(mode="busy"))
    slow = run_with(PollingConfig(mode="interval", interval_us=50.0))
    assert slow > fast


def test_busy_polling_loads_cpu_reserved_does_not():
    cfg = PollingConfig(mode="busy")
    job, unr = make_unr("glex", polling=cfg)
    assert job.cluster.node(0).cpu.polling_load == BUSY_INTERFERENCE
    job, unr = make_unr(
        "glex", polling=PollingConfig(mode="reserved", reserved_cores=1)
    )
    node = job.cluster.node(0)
    assert node.cpu.polling_load == 0.0
    assert node.cpu.reserved == 1


# ------------------------------------------------------------- misc


def test_endpoint_cached():
    job, unr = make_unr("glex")
    assert unr.endpoint(0) is unr.endpoint(0)


def test_repr_smoke():
    job, unr = make_unr("glex")
    assert "glex" in repr(unr)
    assert "rank=0" in repr(unr.endpoint(0))
