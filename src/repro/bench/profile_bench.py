"""``repro profile``: host-time profiles of the bench workloads.

Drives one of three workloads — ``latency`` (Figure 4 ping-pong),
``stream`` (credit-flowed PUT stream) or ``powerllel`` (small PowerLLEL
grid) — with a :class:`~repro.obs.profile.HostProfiler` armed, and
reduces the result to the machine-readable ``BENCH_profile.json``
record (schema ``repro.bench.profile/1``, validated in the same
hand-rolled style as the other bench emitters).

Two properties make the record trustworthy:

* **Coverage.**  The profiler's chained-timestamp design attributes
  (essentially) every nanosecond of the measured window to an event
  kind, so ``coverage`` — Σ per-kind self time / wall time — lands
  near 1.0; the emitter refuses records below
  :data:`COVERAGE_FLOOR` rather than publishing a misleading profile.
* **Passivity.**  Arming the profiler cannot change the simulation
  (it reads clocks, never schedules), so the deterministic metrics
  embedded from the workload's recorder (events, histogram
  percentiles) are identical to an unprofiled run's.

``measure_overhead`` quantifies the profiler tax: best-of-N wall time
of the two datapath runs (64 KiB x 6 PUT ping-pong + GET pull) observed
vs observed+profiled.  The CI gate holds the ratio under 1.10
(``--max-overhead-pct 10``).
"""

from __future__ import annotations

import gc
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import HostProfiler, Recorder
from ..obs.profile import host_clock_ns, peak_rss_kb, run_meta

__all__ = [
    "PROFILE_SCHEMA",
    "PROFILE_WORKLOADS",
    "COVERAGE_FLOOR",
    "profile_bench",
    "measure_overhead",
    "write_profile_bench",
    "validate_profile_bench",
    "validate_profile_bench_file",
]

PROFILE_SCHEMA = "repro.bench.profile/1"

PROFILE_WORKLOADS: Tuple[str, ...] = ("latency", "stream", "powerllel")

#: refuse to emit a profile whose attribution misses >10% of wall time
COVERAGE_FLOOR = 0.9

#: recorder histograms worth carrying into the profile record (exact
#: p50/p95/p99 from :class:`repro.obs.recorder.Histogram`).
_SIM_HISTOGRAMS = (
    "core.poll_dispatch_delay_us",
    "core.sig_wait_us",
    "net.frag_wire_us",
)


def _run_latency(platform: str, size: int, iters: int, seed: int,
                 prof: HostProfiler) -> Tuple[Optional[Recorder], Dict[str, Any]]:
    from .latency import unr_pingpong

    out: Dict[str, Any] = {}
    half_rtt = unr_pingpong(platform, size, iters, out=out, profiler=prof)
    return out["recorder"], {"half_rtt_us": half_rtt * 1e6}


def _run_stream(platform: str, size: int, iters: int, seed: int,
                prof: HostProfiler) -> Tuple[Optional[Recorder], Dict[str, Any]]:
    from .tracedemo import trace_demo

    out = trace_demo("stream", platform=platform, size=size, iters=iters,
                     seed=seed, profiler=prof)
    return out["recorder"], dict(out["result"])


def _run_powerllel(platform: str, size: int, iters: int, seed: int,
                   prof: HostProfiler) -> Tuple[Optional[Recorder], Dict[str, Any]]:
    from .powerllel_bench import powerllel_point

    res = powerllel_point(
        platform, nodes=4, py=2, pz=2, nx=64, ny=64, nz=64,
        backend="unr", steps=max(iters // 4, 1), seed=seed,
        observe=True, profiler=prof,
    )
    recorder = res.pop("recorder", None)
    return recorder, {"time": res["time"], "phases": res.get("phases", {})}


_RUNNERS: Dict[str, Callable[..., Tuple[Optional[Recorder], Dict[str, Any]]]] = {
    "latency": _run_latency,
    "stream": _run_stream,
    "powerllel": _run_powerllel,
}


def profile_bench(
    workload: str = "latency",
    platform: str = "th-xy",
    *,
    size: int = 4096,
    iters: int = 40,
    seed: int = 2024,
    sample_every: int = 0,
    counter_every: int = 256,
    overhead_repeats: int = 0,
    profiler: Optional[HostProfiler] = None,
) -> Dict[str, Any]:
    """Profile one workload; returns the ``BENCH_profile.json`` record.

    ``overhead_repeats > 0`` additionally runs :func:`measure_overhead`
    (the two datapath runs, best-of-N) and embeds the result.  Pass a
    pre-built ``profiler`` to control sampling or to share accumulators
    across calls.
    """
    if workload not in _RUNNERS:
        raise ValueError(
            f"unknown profile workload {workload!r} (choose from {PROFILE_WORKLOADS})"
        )
    prof = profiler if profiler is not None else HostProfiler(
        sample_every=sample_every, counter_every=counter_every
    )
    with prof.window():
        recorder, result = _RUNNERS[workload](platform, size, iters, seed, prof)
    snap = prof.snapshot()
    record: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "name": f"profile_{workload}",
        "workload": workload,
        "platform": platform,
        "params": {"size": size, "iters": iters, "seed": seed,
                   "sample_every": sample_every},
        "run": run_meta(),
        "wall_ms": snap["wall_ns"] / 1e6,
        "peak_rss_kb": peak_rss_kb(),
        "n_events": snap["n_events"],
        "coverage": snap["coverage"],
        "overhead_est_ms": snap["overhead_est_ns"] / 1e6,
        "events": snap["events"],
        "layers": snap["layers"],
        "dispatch": snap["dispatch"],
        "result": result,
    }
    if recorder is not None:
        rsnap = recorder.snapshot()
        record["sim"] = {
            "t_end_us": rsnap["t_end"] * 1e6,
            "sim_events": rsnap["counters"].get("sim.events", 0),
            "histograms": {
                name: rsnap["histograms"][name]
                for name in _SIM_HISTOGRAMS if name in rsnap["histograms"]
            },
        }
    if overhead_repeats > 0:
        record["overhead"] = measure_overhead(platform, repeats=overhead_repeats,
                                              seed=seed)
    cov = record["coverage"]
    if cov is not None and cov < COVERAGE_FLOOR:
        raise RuntimeError(
            f"profile coverage {cov:.3f} below floor {COVERAGE_FLOOR} — "
            "attribution chain broken, refusing to emit a misleading record"
        )
    return record


def measure_overhead(
    platform: str = "th-xy", *, repeats: int = 3, seed: int = 2024
) -> Dict[str, Any]:
    """Profiler tax on a 64 KiB x 6 PUT ping-pong plus GET pull
    (best-of-``repeats``).

    Returns observed (recorder-armed, no profiler) and profiled wall
    times in ms plus the overhead ratio.  The two variants are timed in
    *interleaved* pairs (after an untimed warmup of each) and the gated
    ratio is **min(profiled) / min(observed)**: on a shared box the
    per-run medians swing by tens of percent with background load,
    while the minima — the runs that hit a quiet scheduling window —
    are reproducible to ~1% and are the standard noise-free estimate of
    a microbenchmark's true cost.  The profiler is built once outside
    the timed region, so the gate measures the steady-state per-event
    tax, not the one-off construction / calibration cost.
    """
    from .latency import unr_get_pull, unr_pingpong

    prof = HostProfiler()

    def timed(profiler: Optional[HostProfiler]) -> int:
        t0 = host_clock_ns()
        unr_pingpong(platform, 65536, 6, observe=True, profiler=profiler)
        unr_get_pull(platform, 65536, 6, seed=seed, profiler=profiler)
        return host_clock_ns() - t0

    timed(None)  # untimed warmups: imports, allocator, branch caches
    timed(prof)
    observed_ns = profiled_ns = float("inf")
    # Cyclic-GC pauses are milliseconds against a ~5 ms workload; collect
    # the backlog up front and keep the collector out of the timed pairs.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(repeats, 1)):
            observed_ns = min(observed_ns, timed(None))
            profiled_ns = min(profiled_ns, timed(prof))
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "observed_ms": observed_ns / 1e6,
        "profiled_ms": profiled_ns / 1e6,
        "ratio": profiled_ns / observed_ns if observed_ns else 1.0,
        "repeats": repeats,
    }


def write_profile_bench(record: Dict[str, Any], path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return path


def _check_stat_block(block: Any, where: str, errors: List[str]) -> None:
    if not isinstance(block, dict):
        errors.append(f"{where} must be an object")
        return
    for metric in ("count", "total_ns", "self_ns", "max_ns"):
        value = block.get(metric)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{where}.{metric} must be a non-negative integer")
    if block.get("self_ns", 0) > block.get("total_ns", 0):
        errors.append(f"{where}: self_ns exceeds total_ns")
    if not isinstance(block.get("layer"), str):
        errors.append(f"{where}.layer must be a string")


def validate_profile_bench(record: Any) -> List[str]:
    """Schema-check a profile record; returns error strings (empty = ok)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["profile record must be an object"]
    if record.get("schema") != PROFILE_SCHEMA:
        errors.append(
            f"schema must be {PROFILE_SCHEMA!r}, got {record.get('schema')!r}"
        )
    if record.get("workload") not in PROFILE_WORKLOADS:
        errors.append(f"workload must be one of {PROFILE_WORKLOADS}")
    if not isinstance(record.get("platform"), str):
        errors.append("platform must be a string")
    if not isinstance(record.get("params"), dict):
        errors.append("params must be an object")
    run = record.get("run")
    if not isinstance(run, dict) or not isinstance(run.get("git_sha"), str):
        errors.append("run.git_sha must be a string")
    wall = record.get("wall_ms")
    if not isinstance(wall, (int, float)) or isinstance(wall, bool) or wall <= 0:
        errors.append("wall_ms must be a positive number")
    rss = record.get("peak_rss_kb")  # optional: None on non-POSIX hosts
    if rss is not None and (
        not isinstance(rss, int) or isinstance(rss, bool) or rss <= 0
    ):
        errors.append("peak_rss_kb must be a positive integer when present")
    n_events = record.get("n_events")
    if not isinstance(n_events, int) or isinstance(n_events, bool) or n_events <= 0:
        errors.append("n_events must be a positive integer")
    cov = record.get("coverage")
    if not isinstance(cov, (int, float)) or isinstance(cov, bool):
        errors.append("coverage must be a number")
    elif not (COVERAGE_FLOOR <= cov <= 1.5):
        errors.append(
            f"coverage {cov} outside [{COVERAGE_FLOOR}, 1.5] — "
            "per-event-kind self-times must account for the wall time"
        )
    for section in ("events", "layers", "dispatch"):
        table = record.get(section)
        if not isinstance(table, dict):
            errors.append(f"{section} must be an object")
            continue
        for kind, block in table.items():
            _check_stat_block(block, f"{section}[{kind!r}]", errors)
    if not record.get("events"):
        errors.append("events table must not be empty")
    overhead = record.get("overhead")
    if overhead is not None:
        if not isinstance(overhead, dict):
            errors.append("overhead must be an object")
        else:
            ratio = overhead.get("ratio")
            if not isinstance(ratio, (int, float)) or isinstance(ratio, bool) or ratio <= 0:
                errors.append("overhead.ratio must be a positive number")
    sim = record.get("sim")
    if sim is not None:
        if not isinstance(sim, dict) or not isinstance(sim.get("histograms"), dict):
            errors.append("sim.histograms must be an object")
        else:
            for name, stats in sim["histograms"].items():
                if not isinstance(stats, dict) or "p99" not in stats:
                    errors.append(f"sim.histograms[{name!r}] must carry percentiles")
    return errors


def validate_profile_bench_file(path: str) -> None:
    """Load + validate a profile JSON file; raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    errors = validate_profile_bench(record)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
