"""Failure-injection and robustness tests across layers.

These exercise the paths that only matter when something goes wrong:
un-polled completion queues, stray completions, signal-table churn,
double resets, and determinism of full application runs.
"""

import warnings

import numpy as np

from repro.core import PollingConfig, Unr, UnrSyncWarning
from repro.netsim import Cluster, ClusterSpec, CompletionRecord, FabricSpec, NicSpec, NodeSpec
from repro.runtime import Job, run_job
from repro.sim import Environment


def make_unr(channel="glex", cq_depth=4096, polling=None, **unr_kw):
    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=4),
        NicSpec(bandwidth_gbps=100, latency_us=1.0, cq_depth=cq_depth),
        FabricSpec(routing_jitter=0.2), seed=17,
    )
    job = Job(Cluster(env, spec))
    return job, Unr(job, channel, polling=polling, **unr_kw)


def test_unpolled_cq_overflows_and_stalls():
    """Without a polling thread (and no Level-4 offload) the CQ fills
    and deliveries stall — the failure the paper's polling thread and
    Level-4 co-design prevent."""
    job, unr = make_unr(cq_depth=4, polling=PollingConfig(mode="none"))

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            mr = ep.mem_reg(np.zeros(8 * 64, dtype=np.uint8))
            sig = ep.sig_init(1)
            rmt = yield from ep.recv_ctl(1, tag="b")
            for i in range(8):
                blk = ep.blk_init(mr, i * 64, 64)
                ep.put(blk, rmt.sub(0, 64))
            yield ctx.env.timeout(1e-3)
        else:
            mr = ep.mem_reg(np.zeros(64, dtype=np.uint8))
            sig = ep.sig_init(8)
            blk = ep.blk_init(mr, 0, 64, signal=sig)
            yield from ep.send_ctl(0, blk, tag="b")
            yield ctx.env.timeout(1e-3)
            # Nothing polled: the signal never advanced.
            assert sig.counter == 8

    run_job(job, program)
    nic = job.nic_of(1)
    assert nic.cq.n_overflow_stalls > 0
    assert nic.cq.high_water == 4


def test_level4_never_overflows_cq():
    """Hardware atomic add bypasses the CQ entirely."""
    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=4),
        NicSpec(bandwidth_gbps=100, latency_us=1.0, cq_depth=4, atomic_offload=True),
        seed=17,
    )
    job = Job(Cluster(env, spec))
    unr = Unr(job, "glex")

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            mr = ep.mem_reg(np.zeros(64, dtype=np.uint8))
            blk = ep.blk_init(mr, 0, 64)
            rmt = yield from ep.recv_ctl(1, tag="b")
            for _ in range(32):
                ep.put(blk, rmt)
            yield ctx.env.timeout(1e-3)
        else:
            mr = ep.mem_reg(np.zeros(64, dtype=np.uint8))
            sig = ep.sig_init(32)
            blk = ep.blk_init(mr, 0, 64, signal=sig)
            yield from ep.send_ctl(0, blk, tag="b")
            yield from ep.sig_wait(sig)

    run_job(job, program)
    assert job.nic_of(1).cq.n_overflow_stalls == 0
    assert job.nic_of(1).cq.n_pushed == 0


def test_stray_completion_counted_not_crashing():
    """A completion for a freed signal is counted, not fatal (e.g. a
    late message after signal teardown)."""
    job, unr = make_unr()
    unr.engines[0]._dispatch(
        job.nic_of(0), CompletionRecord(kind="put_remote", custom=12345 << 64)
    )
    assert unr.stats["stray_completions"] == 1


def test_unknown_record_kind_ignored():
    job, unr = make_unr()
    unr.engines[0]._dispatch(job.nic_of(0), CompletionRecord(kind="exotic", custom=1))
    assert unr.stats["unknown_records"] == 1


def test_signal_table_churn_reuses_slots():
    job, unr = make_unr()
    ep = unr.endpoint(0)
    sids = set()
    for _ in range(100):
        sigs = [ep.sig_init(1) for _ in range(16)]
        sids.update(s.sid for s in sigs)
        for s in sigs:
            ep.sig_free(s)
    assert len(sids) == 16  # slots recycled, table never grows


def test_double_reset_without_traffic_warns_each_time():
    job, unr = make_unr()
    ep = unr.endpoint(0)
    sig = ep.sig_init(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ep.sig_reset(sig)  # counter==2 → never triggered → warn
        ep.sig_reset(sig)
    assert sum(isinstance(w.message, UnrSyncWarning) for w in caught) == 2
    assert unr.stats["sync_errors"] == 2


def test_full_run_deterministic_across_repeats():
    """Identical seeds → identical simulated timelines, end to end."""
    from repro.powerllel import PowerLLELConfig, run_powerllel

    def run():
        env = Environment()
        spec = ClusterSpec(
            "t", 4, NodeSpec(cores=8),
            NicSpec(bandwidth_gbps=100, latency_us=1.0),
            FabricSpec(routing_jitter=0.3), seed=33,
        )
        job = Job(Cluster(env, spec))
        cfg = PowerLLELConfig(
            nx=32, ny=24, nz=32, py=2, pz=2, steps=2, lengths=(1, 1, 8)
        )
        return run_powerllel(job, cfg, backend="unr")["time"]

    assert run() == run()


def test_mixed_channels_independent_unr_instances():
    """Two UNR instances (different channels) coexist on one job —
    the paper's gradual-adoption story."""
    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=4),
        NicSpec(bandwidth_gbps=100, latency_us=1.0), seed=3,
    )
    job = Job(Cluster(env, spec))
    unr_a = Unr(job, "glex", polling=PollingConfig(mode="none"))
    unr_b = Unr(job, "mpi")
    got = {}

    def program(ctx):
        ea, eb = unr_a.endpoint(ctx.rank), unr_b.endpoint(ctx.rank)
        if ctx.rank == 0:
            yield from ea.send_ctl(1, "via-glex", tag="x")
            yield from eb.send_ctl(1, "via-fallback", tag="y")
        else:
            got["a"] = yield from ea.recv_ctl(0, tag="x")
            got["b"] = yield from eb.recv_ctl(0, tag="y")

    run_job(job, program)
    assert got == {"a": "via-glex", "b": "via-fallback"}
