"""Exporters: Perfetto ``trace_event`` JSON, text timeline, bench records.

Everything here is a pure function of a :class:`~repro.obs.Recorder` —
no wall-clock reads, no environment probing — and every serialization
sorts its keys, so two identical runs export **byte-identical**
artifacts (enforced by the golden test in ``tests/obs``).

* :func:`perfetto_json` / :func:`write_perfetto` — Chrome/Perfetto
  ``trace_event`` JSON: one pid, one tid per track, ``"X"`` complete
  events for spans and NIC transfers, ``"i"`` instants for markers,
  ``"M"`` metadata naming the tracks.  Load at https://ui.perfetto.dev
  or ``chrome://tracing``.
* :func:`text_timeline` — the merged transfer+marker text view (the
  transfers alone render with :func:`~repro.netsim.trace.render_timeline`).
* :func:`bench_record` / :func:`write_bench` — the machine-readable
  ``BENCH_obs.json`` record: snapshot, per-track critical paths and the
  transfer fingerprint.
* :func:`validate_trace` / :func:`validate_bench` — hand-rolled schema
  checks (no external jsonschema dependency) used by the CLI and CI.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..netsim.trace import render_timeline, transfer_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .recorder import Recorder

__all__ = [
    "to_trace_events",
    "perfetto_json",
    "write_perfetto",
    "text_timeline",
    "bench_record",
    "write_bench",
    "validate_trace",
    "validate_trace_file",
    "validate_bench",
    "validate_bench_file",
]

BENCH_SCHEMA = "repro.obs.bench/1"

_PID = 1


def _us(t: float) -> float:
    """Simulated seconds → microseconds, rounded for stable JSON text."""
    return round(t * 1e6, 3)


def _track_ids(
    recorder: "Recorder", profiler: Optional[Any] = None
) -> Dict[str, int]:
    """Deterministic track → tid assignment (sorted names, tids from 1)."""
    names: Dict[str, bool] = {}
    for span in recorder.spans.spans:
        names[span.track] = True
    for evt in recorder.events:
        names[evt.track] = True
    for rec in recorder.transfers:
        names[f"net.n{rec.src_node}.r{rec.src_rail}"] = True
    if profiler is not None:
        for track in profiler.counter_tracks():
            names[track] = True
    return {name: tid for tid, name in enumerate(sorted(names), start=1)}


def to_trace_events(
    recorder: "Recorder", profiler: Optional[Any] = None
) -> List[Dict[str, Any]]:
    """The recorder's contents as Chrome ``trace_event`` dicts.

    ``profiler`` (a :class:`repro.obs.profile.HostProfiler`) merges its
    per-layer host-time counter tracks (``"C"`` events keyed by the
    *simulated* timestamp of each sample) into the same pid, after the
    recorder's own tracks in tid order.
    """
    tids = _track_ids(recorder, profiler)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M", "name": "process_name", "pid": _PID, "tid": 0,
            "args": {"name": "repro-sim"},
        }
    ]
    for name, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
                "args": {"name": name},
            }
        )

    body: List[Dict[str, Any]] = []
    for span in recorder.spans.spans:
        args = dict(span.args)
        if not span.closed:
            args["unfinished"] = True
        body.append(
            {
                "ph": "X", "name": span.name, "cat": span.cat,
                "pid": _PID, "tid": tids[span.track],
                "ts": _us(span.t0), "dur": _us(span.duration),
                "args": args,
            }
        )
    for rec in recorder.transfers:
        args: Dict[str, Any] = {"nbytes": rec.nbytes, "ordered": rec.ordered}
        if rec.deliver_time is None:
            dur = 0.0
            args["undelivered"] = True
        else:
            dur = rec.deliver_time - rec.post_time
        body.append(
            {
                "ph": "X", "cat": "net",
                "name": (
                    f"{rec.kind} {rec.nbytes}B "
                    f"n{rec.src_node}.{rec.src_rail}>n{rec.dst_node}.{rec.dst_rail}"
                ),
                "pid": _PID, "tid": tids[f"net.n{rec.src_node}.r{rec.src_rail}"],
                "ts": _us(rec.post_time), "dur": _us(dur),
                "args": args,
            }
        )
    for evt in recorder.events:
        body.append(
            {
                "ph": "i", "s": "t", "name": evt.name, "cat": "marker",
                "pid": _PID, "tid": tids[evt.track],
                "ts": _us(evt.t), "args": dict(evt.args),
            }
        )
    if profiler is not None:
        body.extend(profiler.trace_events(tids))
    body.sort(key=lambda ev: (ev["ts"], ev["tid"]))
    return events + body


def perfetto_json(recorder: "Recorder", profiler: Optional[Any] = None) -> str:
    """Byte-stable Perfetto JSON (sorted keys, fixed separators).

    With ``profiler`` the document additionally carries unrprof's
    counter tracks; the recorder-derived events stay byte-identical
    (host-time values live only on the profiler's own tracks).
    """
    doc = {
        "traceEvents": to_trace_events(recorder, profiler),
        "displayTimeUnit": "ms",
        "otherData": {"snapshot": recorder.snapshot()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_perfetto(
    recorder: "Recorder", path: str, profiler: Optional[Any] = None
) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(perfetto_json(recorder, profiler))
    return path


# -- text timeline ------------------------------------------------------------

def text_timeline(recorder: "Recorder", limit: int = 40, min_bytes: int = 0) -> str:
    """Merged text view: NIC transfers interleaved with instant markers,
    ordered by simulated time."""
    rows: List[Any] = []
    for order, rec in enumerate(recorder.transfers):
        if rec.nbytes < min_bytes:
            continue
        rows.append((rec.post_time, 0, order, render_timeline([rec])))
    for order, evt in enumerate(recorder.events):
        detail = " ".join(f"{k}={evt.args[k]}" for k in sorted(evt.args))
        rows.append(
            (
                evt.t, 1, order,
                f"{evt.t * 1e6:9.2f} !            us  {evt.name} [{evt.track}]"
                + (f"  {detail}" if detail else ""),
            )
        )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = [row[3] for row in rows[:limit]]
    if len(rows) > limit:
        lines.append(f"... ({len(rows)} rows total)")
    return "\n".join(lines)


# -- bench record -------------------------------------------------------------

def bench_record(
    recorder: "Recorder",
    *,
    name: str,
    platform: Optional[str] = None,
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Machine-readable benchmark record (the ``BENCH_obs.json`` body)."""
    critical_paths: Dict[str, List[Dict[str, Any]]] = {}
    for track in recorder.spans.tracks():
        path = recorder.spans.critical_path(track)
        if path:
            critical_paths[track] = [
                {"name": s.name, "cat": s.cat, "t0_us": _us(s.t0), "dur_us": _us(s.duration)}
                for s in path
            ]
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "platform": platform,
        "params": dict(params or {}),
        "snapshot": recorder.snapshot(),
        "critical_paths": critical_paths,
        "transfer_fingerprint": transfer_fingerprint(recorder.transfers),
    }


def write_bench(record: Dict[str, Any], path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return path


# -- validation ---------------------------------------------------------------

def validate_trace(doc: Any) -> List[str]:
    """Schema-check a ``trace_event`` document; returns error strings."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["top-level value must be an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "C"):
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: missing/non-string name")
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            errors.append(f"{where}: pid/tid must be integers")
        if ph in ("X", "i", "C"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
                errors.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                errors.append(f"{where}: dur must be a non-negative number")
        if ph == "M" and not isinstance(ev.get("args"), dict):
            errors.append(f"{where}: metadata event needs an args object")
    return errors


def validate_trace_file(path: str) -> None:
    """Load + validate a trace JSON file; raises ``ValueError`` on errors."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = validate_trace(doc)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))


def validate_bench(record: Any) -> List[str]:
    """Schema-check a bench record; returns error strings."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["bench record must be an object"]
    if record.get("schema") != BENCH_SCHEMA:
        errors.append(f"schema must be {BENCH_SCHEMA!r}, got {record.get('schema')!r}")
    if not isinstance(record.get("name"), str):
        errors.append("name must be a string")
    snap = record.get("snapshot")
    if not isinstance(snap, dict):
        errors.append("snapshot must be an object")
    else:
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(snap.get(section), dict):
                errors.append(f"snapshot.{section} must be an object")
    fp = record.get("transfer_fingerprint")
    if not (isinstance(fp, str) and len(fp) == 64):
        errors.append("transfer_fingerprint must be a sha256 hex digest")
    if not isinstance(record.get("critical_paths"), dict):
        errors.append("critical_paths must be an object")
    return errors


def validate_bench_file(path: str) -> None:
    """Load + validate a bench JSON file; raises ``ValueError`` on errors."""
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    errors = validate_bench(record)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
