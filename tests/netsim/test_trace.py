"""Tests for the transfer log (`repro.netsim.trace` over `Recorder.transfers`)."""

import numpy as np

from repro.core import Unr
from repro.netsim import Cluster, ClusterSpec, NicSpec, NodeSpec
from repro.netsim.trace import TraceRecord, render_timeline, transfer_summary
from repro.obs import Recorder
from repro.runtime import Job, run_job
from repro.sim import Environment


def make_cluster(n=2, nics=1):
    env = Environment()
    spec = ClusterSpec(
        "t", n, NodeSpec(cores=4, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0), seed=14,
    )
    return env, Cluster(env, spec)


def test_trace_records_put():
    env, cluster = make_cluster()
    transfers = Recorder.attach(cluster).transfers
    a, b = cluster.node(0).nic(), cluster.node(1).nic()

    def run(env):
        yield a.post_put(b, 4096, payload=b"x", on_deliver=lambda _: None)
        yield env.timeout(1e-3)

    env.run_process(run(env))
    assert len(transfers) == 1
    rec = transfers[0]
    assert rec.kind == "put"
    assert (rec.src_node, rec.dst_node) == (0, 1)
    assert rec.nbytes == 4096
    assert rec.deliver_time is not None
    assert rec.latency > 0
    assert not rec.intra_node


def test_trace_preserves_delivery_callback():
    env, cluster = make_cluster()
    Recorder.attach(cluster)
    a, b = cluster.node(0).nic(), cluster.node(1).nic()
    landed = []

    def run(env):
        yield a.post_put(b, 64, payload=b"data", on_deliver=landed.append)
        yield env.timeout(1e-3)

    env.run_process(run(env))
    assert landed == [b"data"]


def test_trace_records_get():
    env, cluster = make_cluster()
    transfers = Recorder.attach(cluster).transfers
    a, b = cluster.node(0).nic(), cluster.node(1).nic()

    def run(env):
        yield a.post_get(b, 256, fetch=lambda: b"y")

    env.run_process(run(env))
    assert transfers[0].kind == "get"
    assert transfers[0].nbytes == 256


def test_trace_summary_and_queries():
    env, cluster = make_cluster(n=3)
    transfers = Recorder.attach(cluster).transfers
    nics = [cluster.node(i).nic() for i in range(3)]

    def run(env):
        nics[0].post_put(nics[1], 100)
        nics[0].post_put(nics[2], 200)
        nics[1].post_put(nics[2], 300)
        yield env.timeout(1e-3)

    env.run_process(run(env))
    s = transfer_summary(transfers)
    assert s["n_messages"] == 3
    assert s["n_delivered"] == 3
    assert s["total_bytes"] == 600
    assert s["min_latency"] <= s["mean_latency"] <= s["max_latency"]
    pairs = {(r.src_node, r.dst_node): r.nbytes for r in transfers}
    assert pairs == {(0, 1): 100, (0, 2): 200, (1, 2): 300}


def test_trace_through_full_unr_exchange():
    """Tracing composes with the whole stack (UNR notified puts)."""
    env, cluster = make_cluster()
    transfers = Recorder.attach(cluster).transfers
    job = Job(cluster)
    unr = Unr(job, "glex")

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(8192, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, 8192, signal=sig)
        rmt = yield from ep.exchange_blk(1 - ctx.rank, blk)
        if ctx.rank == 0:
            ep.put(blk, rmt, local_signal=None)
            yield ctx.env.timeout(0)
        else:
            yield from ep.sig_wait(sig)

    run_job(job, program)
    # 2 ctl messages (BLK exchange) + 1 data put.
    assert [r.nbytes for r in transfers].count(8192) == 1
    assert transfer_summary(transfers)["n_messages"] == 3


def test_timeline_rendering():
    env, cluster = make_cluster()
    transfers = Recorder.attach(cluster).transfers
    a, b = cluster.node(0).nic(), cluster.node(1).nic()

    def run(env):
        a.post_put(b, 64, ordered=True)
        a.post_put(b, 1 << 16)
        yield env.timeout(1e-3)

    env.run_process(run(env))
    text = render_timeline(transfers)
    assert "put n0.0 => n1.0  64B  [ordered]" in text
    assert "65536B" in text
    filtered = render_timeline(transfers, min_bytes=1000)
    assert "64B" not in filtered


def test_timeline_delivery_at_t_zero_is_not_pending():
    """Regression: a record delivered at exactly t=0.0 must render its
    delivery column, not ``pending`` (falsy-float bug in the renderer)."""
    record = TraceRecord(
        kind="put", src_node=0, src_rail=0, dst_node=1, dst_rail=0,
        nbytes=8, post_time=0.0, deliver_time=0.0,
    )
    line = render_timeline([record]).splitlines()[-1]
    assert "pending" not in line
    assert line.count("0.00") >= 2  # both post and deliver columns
