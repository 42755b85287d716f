"""Recorder unit tests: metrics, span nesting, attach idempotency and the
single-recording guarantee for NIC transfers."""

import pytest

from repro.bench import run_stream
from repro.core import Unr
from repro.obs import Recorder
from repro.platforms import make_job
from repro.sim import Environment


def test_counters_gauges_histograms():
    env = Environment()
    rec = Recorder(env)
    rec.count("a")
    rec.count("a", 2)
    rec.gauge("g", 1.5)
    rec.gauge_max("m", 1.0)
    rec.gauge_max("m", 0.5)
    rec.observe("h", 2.0)
    rec.observe("h", 4.0)
    snap = rec.snapshot()
    assert snap["counters"]["a"] == 3
    assert snap["gauges"]["g"] == 1.5
    assert snap["gauges"]["m"] == 1.0
    h = snap["histograms"]["h"]
    assert (h["count"], h["min"], h["max"], h["mean"]) == (2, 2.0, 4.0, 3.0)


def test_histogram_exact_nearest_rank_percentiles():
    env = Environment()
    rec = Recorder(env)
    for v in range(1, 101):  # 1..100: percentiles are exact by inspection
        rec.observe("h", float(v))
    h = rec.snapshot()["histograms"]["h"]
    assert (h["p50"], h["p95"], h["p99"]) == (50.0, 95.0, 99.0)
    # Nearest-rank, not interpolated: small samples pick real values.
    env2 = Environment()
    rec2 = Recorder(env2)
    for v in (10.0, 20.0, 30.0):
        rec2.observe("h", v)
    h2 = rec2.snapshot()["histograms"]["h"]
    assert h2["p50"] == 20.0
    assert h2["p95"] == h2["p99"] == 30.0
    assert h2["p99"] in (10.0, 20.0, 30.0)


def test_histogram_percentiles_empty_and_single():
    env = Environment()
    rec = Recorder(env)
    rec.observe("once", 7.0)
    snap = rec.snapshot()["histograms"]
    assert snap["once"]["p50"] == snap["once"]["p99"] == 7.0
    from repro.obs.recorder import Histogram

    empty = Histogram()
    assert empty.percentile(99) is None
    assert empty.stats()["p50"] is None


def test_span_nesting_and_critical_path():
    env = Environment()
    rec = Recorder(env)

    def program():
        outer = rec.span("rank0", "outer")
        short = rec.span("rank0", "short")
        yield env.timeout(1.0)
        short.end()
        long_ = rec.span("rank0", "long")
        yield env.timeout(3.0)
        long_.end()
        outer.end()

    env.run_process(program())
    by_name = {s.name: s for s in rec.spans.spans}
    assert by_name["short"].parent == by_name["outer"].index
    assert by_name["long"].parent == by_name["outer"].index
    assert by_name["outer"].duration == pytest.approx(4.0)
    assert [s.name for s in rec.spans.critical_path("rank0")] == ["outer", "long"]


def test_span_context_manager_and_idempotent_end():
    env = Environment()
    rec = Recorder(env)
    with rec.span("t", "cm") as handle:
        pass
    handle.end()  # second end is a no-op
    span = rec.spans.spans[0]
    assert span.closed
    assert span.duration == 0.0


def test_collector_sums_into_snapshot_counters():
    env = Environment()
    rec = Recorder(env)
    rec.count("x", 1)
    rec.add_collector(lambda: {"x": 2.0, "pulled": 5.0})
    snap = rec.snapshot()
    assert snap["counters"]["x"] == 3
    assert snap["counters"]["pulled"] == 5.0
    # Collectors are pulled fresh per snapshot — a second snapshot must
    # not double-add.
    assert rec.snapshot()["counters"]["x"] == 3


def test_attach_is_idempotent_and_shared_by_every_observer():
    """Every observer of a cluster shares its one recorder (and so its
    one transfer log)."""
    job = make_job("th-xy", 2, seed=7)
    rec = Recorder.attach(job.cluster)
    assert Recorder.attach(job.cluster) is rec
    assert Unr(job, "glex", observe=True).obs is rec
    with pytest.raises(ValueError):
        Recorder.attach(job.cluster, Recorder(job.cluster.env))


def test_demo_records_each_transfer_once_and_counts_sim_events():
    _, _, rec = run_stream(platform="th-xy", size=4096, iters=3, seed=2024,
                           observe=True, plan=True)
    snap = rec.snapshot()
    assert snap["n_transfers"] == len(rec.transfers) > 0
    # One trace record per post: the NIC wrap runs exactly once even
    # though Unr(observe=...) attached after the implicit first attach.
    posts = snap["counters"]["net.puts"] + snap["counters"].get("net.gets", 0)
    assert posts == snap["n_transfers"]
    assert snap["counters"]["sim.events"] > 0
    assert snap["gauges"]["sim.heap_depth_max"] > 0
    assert snap["n_spans"] > 0
