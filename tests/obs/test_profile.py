"""unrprof tests: attribution accounting, the passivity contract against
the golden fingerprint corpus, collapsed stacks and counter tracks.

The profiler is the one sanctioned wall-clock user (UNR012), so these
tests assert *accounting identities* (self ≤ total, Σ layers == Σ
kinds, coverage near 1.0) rather than absolute times — host timing
itself is nondeterministic, the bookkeeping around it must not be.
"""

import json
from pathlib import Path

import pytest

from repro.bench import unr_pingpong
from repro.bench.fingerprints import load_corpus, run_schedule
from repro.obs import HostProfiler, Recorder, host_clock_ns, perfetto_json, validate_trace
from repro.platforms import make_job
from repro.sim import InFlight

GOLDEN = Path(__file__).resolve().parent.parent / "core" / "fixtures" / "golden_fingerprints.json"


def profiled_pingpong(prof, iters=6):
    out = {}
    with prof.window():
        unr_pingpong("th-xy", 4096, iters, out=out, profiler=prof)
    return out


def test_host_clock_is_monotonic_nonzero():
    a = host_clock_ns()
    b = host_clock_ns()
    assert isinstance(a, int) and a > 0
    assert b >= a


def test_attribution_identities_hold():
    prof = HostProfiler()
    profiled_pingpong(prof)
    assert prof.n_events > 0
    assert prof.wall_ns > 0
    snap = prof.snapshot()
    # Per-kind self/total sanity.
    for table in ("events", "layers", "dispatch"):
        for kind, block in snap[table].items():
            assert 0 <= block["self_ns"] <= block["total_ns"], (table, kind)
            assert block["count"] > 0
            assert block["max_ns"] <= block["total_ns"]
    # Layer aggregates are exactly the per-kind sums.
    by_layer = {}
    for block in snap["events"].values():
        by_layer[block["layer"]] = by_layer.get(block["layer"], 0) + block["self_ns"]
    for layer, total in by_layer.items():
        assert snap["layers"][layer]["self_ns"] == total
    # The chained-timestamp design leaves (almost) no gap.
    assert snap["coverage"] is not None
    assert snap["coverage"] >= 0.9


def test_setup_frame_and_expected_layers_present():
    prof = HostProfiler()
    profiled_pingpong(prof)
    snap = prof.snapshot()
    assert "host:setup" in snap["events"]
    assert snap["events"]["host:setup"]["layer"] == "host"
    # A ping-pong run touches the kernel, the NIC model, the engine
    # (dispatch of the notified PUT) and the workload program.
    assert {"host", "netsim", "engine", "workload"} <= set(snap["layers"])
    # Handler dispatch is timed per completion-record kind.
    assert "put_remote" in snap["dispatch"]
    assert snap["dispatch"]["put_remote"]["layer"] == "engine"


def test_in_flight_events_keep_their_attribution():
    """NIC deliveries and sweep fires are slotted events, not Deferreds:
    they are booked by their class-shared handler, never by class name."""
    prof = HostProfiler()
    profiled_pingpong(prof)
    events = prof.snapshot()["events"]
    for kind, layer in (
        ("defer:_local_side", "netsim"),
        ("defer:_put_remote", "netsim"),
        ("defer:_sweep_fire", "engine"),
    ):
        assert events[kind]["layer"] == layer
        assert events[kind]["count"] > 0 and events[kind]["total_ns"] > 0

    def names(cls):
        return {cls.__name__}.union(*(names(sub) for sub in cls.__subclasses__()))

    assert {"_LocalSide", "_PutRemote", "_SweepFire"} <= names(InFlight)
    assert not {f"event:{name}" for name in names(InFlight)} & set(events)


def test_snapshot_is_json_ready_and_sorted():
    prof = HostProfiler()
    profiled_pingpong(prof)
    snap = prof.snapshot()
    json.dumps(snap)  # no unserializable values
    assert list(snap["events"]) == sorted(snap["events"])
    assert list(snap["layers"]) == sorted(snap["layers"])


def test_attach_is_idempotent_and_rejects_second_profiler():
    job = make_job("th-xy", 2, seed=7)
    prof = HostProfiler.attach(job.cluster)
    assert HostProfiler.attach(job.cluster) is prof
    assert HostProfiler.attach(job.cluster, prof) is prof
    assert job.cluster.env.profile is prof
    with pytest.raises(ValueError):
        HostProfiler.attach(job.cluster, HostProfiler())
    prof.disarm()
    assert job.cluster.env.profile is None


def test_collapsed_stacks_exact_and_sampled():
    exact = HostProfiler()
    profiled_pingpong(exact)
    lines = exact.collapsed()
    assert lines, "exact fallback must produce frames"
    for line in lines:
        frames, value = line.rsplit(" ", 1)
        assert int(value) > 0
        assert ";" in frames
    sampled = HostProfiler(sample_every=1)
    profiled_pingpong(sampled)
    slines = sampled.collapsed()
    assert sampled.snapshot()["n_samples"] > 0
    # Dispatch frames nest under their enclosing sim event kind.
    assert any(";dispatch:" in line for line in slines)


def test_counter_tracks_merge_into_valid_perfetto(tmp_path):
    prof = HostProfiler(counter_every=8)
    out = {}
    with prof.window():
        unr_pingpong("th-xy", 4096, 6, out=out, profiler=prof)
    rec = out["recorder"]
    tracks = prof.counter_tracks()
    assert tracks and all(t.startswith("prof.host_ms.") for t in tracks)
    doc = json.loads(perfetto_json(rec, prof))
    assert validate_trace(doc) == []
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters, "profiler counter samples must appear in the trace"
    # Counter values are cumulative host ms: non-decreasing per track.
    by_tid = {}
    for ev in counters:
        by_tid.setdefault(ev["tid"], []).append(ev["args"]["value"])
    for values in by_tid.values():
        assert values == sorted(values)
    # Without the profiler the exported bytes are unchanged (opt-in).
    assert perfetto_json(rec) == perfetto_json(rec, None)


def test_report_names_layers_and_kinds():
    prof = HostProfiler()
    profiled_pingpong(prof)
    text = prof.report(top=5)
    assert "host profile:" in text
    assert "coverage" in text
    assert "netsim" in text


def test_profiled_run_keeps_golden_fingerprint_identical():
    """The UNR012 passivity contract, against the committed corpus:
    arming the host profiler must not move a single wire fragment."""
    golden = load_corpus(str(GOLDEN))
    for key in ("th-xy/latency", "hpc-ib/stream"):
        platform, schedule = key.split("/")
        prof = HostProfiler(sample_every=1, counter_every=16)
        with prof.window():
            fp = run_schedule(platform, schedule, profiler=prof)
        assert prof.n_events > 0, "profiler saw no events — hook not armed"
        assert fp == golden[key], f"profiling perturbed the wire: {key}"


def test_accumulators_survive_across_clusters():
    prof = HostProfiler()
    profiled_pingpong(prof, iters=3)
    first = prof.n_events
    profiled_pingpong(prof, iters=3)
    assert prof.n_events > first
    assert prof.snapshot()["events"]["host:setup"]["count"] >= 2
