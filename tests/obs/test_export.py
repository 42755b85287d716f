"""Exporter tests: Perfetto schema validity and byte-stable artifacts
across identical runs."""

import json
from pathlib import Path

from repro.bench import run_stream
from repro.netsim.trace import transfer_fingerprint
from repro.obs import perfetto_json, text_timeline, to_trace_events, validate_trace


def run_demo(profiler=None):
    """The observed stream over a recorded RMA plan, as ``repro trace
    stream`` runs it."""
    return run_stream(platform="th-xy", size=4096, iters=3, seed=2024,
                      observe=True, profiler=profiler, plan=True)[2]


def test_trace_events_validate_and_carry_metadata():
    doc = {"traceEvents": to_trace_events(run_demo())}
    assert validate_trace(doc) == []
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert "M" in phases
    assert "X" in phases
    meta_names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert "process_name" in meta_names
    assert "thread_name" in meta_names


def test_perfetto_json_is_byte_stable_across_identical_runs():
    rec = run_demo()
    a = perfetto_json(rec)
    b = perfetto_json(run_demo())
    assert a == b
    doc = json.loads(a)
    assert validate_trace(doc) == []
    assert doc["otherData"]["snapshot"] == json.loads(json.dumps(rec.snapshot()))
    assert doc["otherData"]["transfer_fingerprint"] == transfer_fingerprint(rec.transfers)


def test_golden_roundtrip_spans_instants_and_counters(tmp_path, monkeypatch):
    """Full wire-format roundtrip: a profiled demo run serialized to
    disk, re-parsed, schema-validated, with every phase kind present
    and its tracks resolvable back to names."""
    from repro.obs import HostProfiler, profile, write_perfetto

    monkeypatch.setattr(profile, "COUNTER_EVERY", 8)
    prof = HostProfiler()
    with prof.window():
        rec = run_demo(prof)
    rec.event("marker.golden", track="events")
    path = write_perfetto(rec, str(tmp_path / "trace.json"), prof)
    doc = json.loads(Path(path).read_text())
    assert validate_trace(doc) == []
    by_phase = {}
    for ev in doc["traceEvents"]:
        by_phase.setdefault(ev["ph"], []).append(ev)
    # Spans, instants AND profiler counters survive the roundtrip.
    assert by_phase["X"] and by_phase["i"] and by_phase["C"]
    tid_names = {
        ev["tid"]: ev["args"]["name"]
        for ev in by_phase["M"] if ev["name"] == "thread_name"
    }
    for ev in by_phase["C"]:
        assert tid_names[ev["tid"]].startswith("prof.host_ms.")
    for ev in by_phase["X"] + by_phase["i"]:
        assert ev["tid"] in tid_names
    # The recorder-derived events are unchanged by the profiler merge
    # (tids shift to make room for the counter tracks, so compare with
    # each tid resolved back to its track name).
    plain = json.loads(perfetto_json(rec))

    def normalized(document):
        names = {
            ev["tid"]: ev["args"]["name"]
            for ev in document["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        out = []
        for ev in document["traceEvents"]:
            if ev["ph"] == "C" or (
                ev["ph"] == "M" and ev["args"]["name"].startswith("prof.")
            ):
                continue
            body = {k: v for k, v in ev.items() if k != "tid"}
            body["track"] = names.get(ev.get("tid"))
            out.append(json.dumps(body, sort_keys=True))
        return sorted(out)

    assert normalized(plain) == normalized(doc)


def test_text_timeline_merges_transfers_and_markers():
    rec = run_demo()
    rec.event("marker.test", track="events", detail=1)
    text = text_timeline(rec, limit=10)
    assert "us" in text
    assert "marker.test" in text
