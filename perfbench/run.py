#!/usr/bin/env python3
"""perfbench: host-time benchmark of the simulator (see README.md).

Three ways in, one measurement protocol:

``python perfbench/run.py``
    one full set: every workload, repeats interleaved round-robin, one
    traced run each; prints every metric with its unit and writes one
    JSON record to ``perfbench/out/record.json``.
``python perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
    the pipeline's entry point (``BENCHMARK.json``): repeats of one
    workload for ``S`` seconds, last stdout line is the result object.
``python perfbench/run.py --selfcheck``
    two full sets on the same code, compared against the bounds.

Every repeat is a fresh child process (``--child``), because users pay
interpreter start, ``import repro`` and cluster construction on every
``repro fig6`` and because peak RSS is only per-workload in a fresh
process.  Load is one process, one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

DEFAULT_SEED = 2024
#: repeats per workload in a full set; the scale rung takes 8 s a repeat
REPEATS = 7
REPEATS_SLOW = 5
SLOW = ("fig7_thxy288",)
#: driver mode never reports a median of fewer untraced repeats than this
MIN_REPEATS = 3
#: a child that runs longer than this is killed and counted as failed checks
CHILD_TIMEOUT_S = 100.0
#: per-layer metrics without a time unit that still depend on the host
HOST_DEPENDENT = ("trace.overhead_ratio", "host.loadavg_start", "host.gc_collections")

def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# child: one repeat of one workload

def child_main(args: argparse.Namespace) -> int:
    spawned_ns = args.spawned_ns or time.monotonic_ns()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    t0 = time.perf_counter_ns()
    from harness import Run, fold_profile, span_self_times
    from workloads import WORKLOADS  # imports numpy and repro
    t1 = time.perf_counter_ns()

    run = Run(args.child, args.seed, args.scale, traced=args.traced, corrupt=args.corrupt)
    run.add_span("import", "host", t0, t1)
    gc_before = sum(s["collections"] for s in gc.get_stats())
    WORKLOADS[args.child](run)
    if run.measure_start_ns is None:
        raise RuntimeError(f"{args.child} has no measured section")
    if "sim.events" in run.counters:
        run.counters["sim.events"] -= run.probe_events  # count the program's events only
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result: Dict[str, Any] = {
        "workload": args.child,
        "seed": args.seed,
        "scale": args.scale,
        "traced": args.traced,
        "wall_s": run.wall_ns / 1e9,
        "segments_ns": run.segments_ns,
        "setup_s": (run.measure_start_ns - spawned_ns) / 1e9,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "gc_collections": sum(s["collections"] for s in gc.get_stats()) - gc_before,
        "ops": run.ops,
        "attempted": run.attempted,
        "failures": run.failures,
        "digest": run.hexdigest(),
        "counters": run.counters,
        "spans": {name: run.span_seconds(name) for name in {s["name"] for s in run.spans}},
    }
    if run.profile is not None:
        result["fold"] = fold_profile(run.profile)
        own = span_self_times(run.spans)
        for span in run.spans:
            span["self_ns"] = own[span["id"]]
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace-{args.child}.json"), "w", encoding="utf-8") as fh:
            json.dump({"trace": run.trace_id, "workload": args.child, "seed": args.seed,
                       "scale": args.scale, "spans": run.spans, "fold": result["fold"]},
                      fh, indent=1)
    print(json.dumps(result))
    return 0


def spawn(workload: str, seed: int, scale: float, *, traced: bool = False,
          corrupt: bool = False, timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter; never raises, never hangs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", workload,
           "--seed", str(seed), "--scale", repr(scale)]
    if traced:
        cmd.append("--traced")
    if corrupt:
        cmd.append("--corrupt")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "traced": traced, "crashed": f"timeout after {timeout:.0f} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or ["no output"]
        return {"workload": workload, "traced": traced,
                "crashed": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# statistics

def summarize(values: List[float]) -> Dict[str, Any]:
    """Median with quartiles, extremes and the sample count."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def clean_wall_s(ok: List[Dict[str, Any]]) -> float:
    """The measured section's wall-clock on an undisturbed host.

    Every repeat of a seed does the same work in segment *k* (see
    ``Run.probe``), so the fastest repeat of each segment is what that
    segment costs when nothing else disturbs the host, and their sum is
    what the whole section costs.  README.md has the measurements that
    made this, not the median of whole repeats, the reported value.
    """
    segments = [r["segments_ns"] for r in ok]
    if len({len(s) for s in segments}) == 1:
        return sum(map(min, zip(*segments))) / 1e9
    return min(r["wall_s"] for r in ok)  # cannot happen while the digests agree


def end_to_end(ok: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The gated metrics of one workload from its untraced repeats: the
    reported ``value`` and the per-repeat ``samples`` it was taken from."""
    wall = clean_wall_s(ok)
    ops = ok[0]["ops"]
    samples = {
        "wall_s": summarize([r["wall_s"] for r in ok]),
        "ops_per_s": summarize([r["ops"] / r["wall_s"] for r in ok]),
        "setup_s": summarize([r["setup_s"] for r in ok]),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in ok]),
    }
    values = {
        "wall_s": wall,
        "ops_per_s": ops / wall,
        # set-up is one short interval: its fastest repeat, for the same reason
        "setup_s": samples["setup_s"]["min"],
        "peak_rss_mb": samples["peak_rss_mb"]["median"],
    }
    return {name: {"value": values[name], "samples": samples[name]} for name in values}


def tally_checks(results: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Checks attempted and failed over repeats; a crashed or timed-out
    child fails as many checks as a healthy repeat attempts, and repeats
    of one seed must agree on the determinism digest."""
    results = list(results)
    healthy = [r for r in results if "crashed" not in r]
    per_repeat = max((r["attempted"] for r in healthy), default=1)
    attempted = failed = 0
    messages: List[str] = []
    for r in results:
        if "crashed" in r:
            attempted += per_repeat
            failed += per_repeat
            messages.append(f"{r['workload']}: child {r['crashed']}")
        else:
            attempted += r["attempted"]
            failed += len(r["failures"])
            messages += [f"{r['workload']}: {f}" for f in r["failures"]]
    digests = {r["digest"] for r in healthy}
    if healthy:
        attempted += 1
        if len(digests) > 1:
            failed += 1
            messages.append(f"{healthy[0]['workload']}: digest differs between repeats")
    return {"attempted": attempted, "failed": failed, "messages": messages,
            "fail_share": failed / attempted if attempted else 1.0,
            "digest": sorted(digests)[0] if len(digests) == 1 else None}


def spawn_traced(runs: List[Dict[str, Any]], workload: str, seed: int,
                 scale: float) -> Optional[Dict[str, Any]]:
    """After the untraced repeats in ``runs``: the one traced child, added
    to ``runs`` for the checks; ``None`` when it (or every repeat) crashed."""
    if all("crashed" in r for r in runs):
        return None
    traced = spawn(workload, seed, scale, traced=True)
    runs.append(traced)
    return None if "crashed" in traced else traced


def _fastest(rows: List[Dict[str, Any]], key: str, sub: Optional[str] = None) -> float:
    """A host time of one interval: its fastest repeat (0 when absent)."""
    return min(((r[sub].get(key, 0.0) if sub else r[key]) for r in rows), default=0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(names: List[str], ok: List[Dict[str, Any]], traced: Optional[Dict[str, Any]],
              loadavg: float) -> Dict[str, float]:
    """Every per-layer metric of one workload (0 where a layer is idle).

    Host times are the fastest of the untraced repeats; exact counts come
    from the first untraced repeat, or from the traced run for the
    counts only its Recorder can see; ``calls``/``self_s`` come from the
    traced run's profile fold.
    """
    first = ok[0]
    counts = dict(traced["counters"]) if traced else {}
    counts.update(first["counters"])
    fold = traced["fold"] if traced else {}
    wall = clean_wall_s(ok)
    ops = first["ops"]
    events = counts.get("sim.events", 0)
    puts, gets = counts.get("core.puts", 0), counts.get("core.gets", 0)

    def span(name: str) -> float:
        return _fastest(ok, name, "spans")

    def leg(name: str) -> float:
        return _fastest(ok, name, "counters")

    hits, misses = counts.get("netsim.pool_hits", 0), counts.get("netsim.pool_misses", 0)
    product = first["workload"].startswith("fig")
    derived = {
        "sim.ns_per_event": _ratio(wall * 1e9, events),
        "sim.heap_ns_per_event": _ratio(counts.get("sim.heap_leg_s", 0.0) * 1e9, events),
        "netsim.pool_hit_ratio": _ratio(hits, hits + misses),
        "netsim.us_per_post": _ratio(wall * 1e6, counts.get("netsim.posts", 0)),
        "netsim.build_s": span("make_job"),
        "core.events_per_op": _ratio(events, puts + gets),
        "core.dispatch_per_sweep": _ratio(counts.get("core.poll_dispatches", 0),
                                          counts.get("core.poll_sweeps", 0)),
        "core.us_per_put": _ratio(leg("core.put_leg_s") * 1e6, puts),
        "core.us_per_get": _ratio(leg("core.get_leg_s") * 1e6, gets),
        "core.init_s": span("Unr"),
        "core.finalize_s": span("finalize"),
        "core.calls_per_op": _ratio(fold.get("core", {}).get("calls", 0), ops),
        "mpi.us_per_msg": _ratio(wall * 1e6, counts.get("mpi.messages", 0)),
        "powerllel.mpi_leg_s": leg("powerllel.mpi_leg_s"),
        "powerllel.unr_leg_s": leg("powerllel.unr_leg_s"),
        "powerllel.fallback_leg_s": leg("powerllel.fallback_leg_s"),
        "powerllel.host_ms_per_rank_step": _ratio(wall * 1e3, ops) if product else 0.0,
        "host.import_s": span("import"),
        # set-up other than the imports: interpreter start, inputs, construction
        "host.build_s": min(r["setup_s"] - r["spans"]["import"] for r in ok),
        "host.cpu_s": _fastest(ok, "cpu_s"),
        "host.gc_collections": first["gc_collections"],
        "host.loadavg_start": loadavg,
        "trace.overhead_ratio": _ratio(traced["wall_s"], wall) if traced else 0.0,
        "trace.digest_match": float(bool(traced) and traced["digest"] == first["digest"]),
    }
    out: Dict[str, float] = {}
    for name in names:
        layer, _, field = name.partition(".")
        if name in derived:
            out[name] = derived[name]
        elif field in ("calls", "self_s"):
            out[name] = fold.get(layer, {}).get(field, 0)
        else:
            out[name] = counts.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# the pipeline's entry point: one workload for --seconds

def driver_main(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {names}")
    loadavg = os.getloadavg()[0]
    budget = args.seconds / 2 if args.trace else args.seconds
    floor = 1 if args.trace else MIN_REPEATS
    start = time.monotonic()
    runs: List[Dict[str, Any]] = []
    while len(runs) < floor or time.monotonic() - start < budget:
        runs.append(spawn(args.workload, args.seed, args.scale))
        if "crashed" in runs[-1]:
            break  # do not spend the budget on a broken build
    ok = [r for r in runs if "crashed" not in r]
    traced = spawn_traced(runs, args.workload, args.seed, args.scale) if args.trace else None
    checks = tally_checks(runs)
    for message in checks["messages"]:
        print(f"FAILED {message}", file=sys.stderr)
    if not ok or (args.trace and traced is None):
        print("perfbench: no repeat finished, nothing to report", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = per_layer([m["name"] for m in spec["per_layer"]], ok, traced, loadavg)
    else:
        values = {name: entry["value"] for name, entry in end_to_end(ok).items()}
    print(f"# {args.workload}: {len(ok)} untraced repeat(s)"
          f"{' + 1 traced' if traced else ''}, seed {args.seed}, "
          f"fail_share {checks['fail_share']:.4g}")
    for name, value in values.items():
        print(f"# {name:34s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# one full set, interleaved

def run_set(workloads: List[str], spec: Dict[str, Any], *, seed: int, scale: float,
            repeats: Optional[int]) -> Dict[str, Any]:
    """All repeats of ``workloads`` round-robin (w1r1, w2r1, … w1r2, …), so
    drift in background load spreads evenly; then one traced run each."""
    loadavg = os.getloadavg()[0]
    want = {w: (repeats or (REPEATS_SLOW if w in SLOW else REPEATS)) for w in workloads}
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for rep in range(max(want.values())):
        for w in workloads:
            if rep < want[w]:
                runs[w].append(spawn(w, seed, scale))
                print(f"  {w} repeat {rep + 1}/{want[w]}: "
                      f"{runs[w][-1].get('wall_s', runs[w][-1].get('crashed'))}", file=sys.stderr)
    record: Dict[str, Any] = {}
    layer_names = [m["name"] for m in spec["per_layer"]]
    for w in workloads:
        ok = [r for r in runs[w] if "crashed" not in r]
        traced = spawn_traced(runs[w], w, seed, scale)
        checks = tally_checks(runs[w])
        entry: Dict[str, Any] = {"checks": checks, "repeats": len(ok)}
        if ok:
            entry["ops"] = ok[0]["ops"]
            entry["end_to_end"] = end_to_end(ok)
            entry["per_layer"] = per_layer(layer_names, ok, traced, loadavg)
        record[w] = entry
    return record


def metadata(seed: int, scale: float) -> Dict[str, Any]:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_1min_start": os.getloadavg()[0], "seed": seed, "scale": scale,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def print_set(record: Dict[str, Any], spec: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("== end to end: value  (per-repeat median [q1 .. q3] min max n) ==")
    for w, entry in record.items():
        checks = entry["checks"]
        print(f"{w}: fail_share = {checks['fail_share']:.4g} "
              f"({checks['failed']} failed / {checks['attempted']} attempted)")
        for name, e in entry.get("end_to_end", {}).items():
            s = e["samples"]
            print(f"  {name:12s} {e['value']:12.6g} {units[name]:6s} (median {s['median']:.6g} "
                  f"[{s['q1']:.6g} .. {s['q3']:.6g}] min {s['min']:.6g} max {s['max']:.6g} n={s['n']})")
        for message in checks["messages"]:
            print(f"  FAILED {message}")
    print("== per layer ==")
    for w, entry in record.items():
        print(f"{w}:")
        for name, value in entry.get("per_layer", {}).items():
            print(f"  {name:34s} {value:14.6g} {units[name]}")


def set_main(args: argparse.Namespace, spec: Dict[str, Any], workloads: List[str]) -> int:
    meta = metadata(args.seed, args.scale)
    record = run_set(workloads, spec, seed=args.seed, scale=args.scale, repeats=args.repeats)
    print_set(record, spec)
    out = args.out or os.path.join(OUT_DIR, "record.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "workloads": record}, fh, indent=1)
    print(f"record written to {os.path.relpath(out, os.getcwd())}")
    return 0 if all(e["checks"]["failed"] == 0 and e["repeats"] for e in record.values()) else 1


def selfcheck_main(args: argparse.Namespace, spec: Dict[str, Any], workloads: List[str]) -> int:
    """Two sets of the same code: do the gated values agree within the
    bounds, and does every exact count and digest repeat?"""
    sets = [run_set(workloads, spec, seed=args.seed, scale=args.scale, repeats=args.repeats)
            for _ in range(2)]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    # counts of a deterministic program: everything that is not a host time
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] not in ("s", "ms", "us", "ns") and m["name"] not in HOST_DEPENDENT]
    breaches = 0
    print(f"{'workload':14s} {'metric':12s} {'set 1':>12s} {'set 2':>12s} {'worse by':>9s} {'bound':>6s}")
    for w in workloads:
        a, b = sets[0][w], sets[1][w]
        if not (a["repeats"] and b["repeats"]):
            print(f"{w:14s} no finished repeats")
            breaches += 1
            continue
        for name, (bound, better) in bounds.items():
            m1, m2 = a["end_to_end"][name]["value"], b["end_to_end"][name]["value"]
            worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
            flag = "BREACH" if worse > bound else ""
            breaches += bool(flag)
            print(f"{w:14s} {name:12s} {m1:12.6g} {m2:12.6g} {worse:+9.2%} {bound:6.0%} {flag}")
        drift = [n for n in exact if a["per_layer"][n] != b["per_layer"][n]]
        if a["checks"]["digest"] != b["checks"]["digest"] or a["checks"]["digest"] is None:
            drift.append("digest")
        failed = a["checks"]["failed"] + b["checks"]["failed"]
        if drift or failed:
            breaches += 1
            print(f"{w:14s} NOT EXACT: {drift or ''} failed checks: {failed}")
    print("selfcheck:", "ok" if not breaches else f"{breaches} breach(es)")
    return 1 if breaches else 0


# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="list workloads and exit")
    ap.add_argument("--only", action="append", metavar="WORKLOAD",
                    help="restrict a set to this workload (repeatable)")
    ap.add_argument("--repeats", type=int, help="untraced repeats per workload in a set")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="tests only; published numbers are always scale 1")
    ap.add_argument("--out", help="where a set writes its JSON record")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run two sets and compare them against the bounds")
    ap.add_argument("--workload", help="pipeline mode: the one workload to run")
    ap.add_argument("--seconds", type=float, help="pipeline mode: how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="pipeline mode: 0 end-to-end metrics, 1 per-layer metrics")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-ns", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # The benchmark measures the program beside it; without one there is
    # nothing to run (and nothing may be reported).
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program to measure: {os.path.join('src', 'repro')} is missing")
    if args.child:
        return child_main(args)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.list:
        for w in spec["workloads"]:
            print(f"{w['name']:14s} {w['why']}")
        return 0
    if args.workload:
        if args.seconds is None:
            ap.error("--workload needs --seconds")
        return driver_main(args, spec)
    unknown = [w for w in args.only or [] if w not in names]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; known: {names}")
    workloads = args.only or names
    if args.selfcheck:
        return selfcheck_main(args, spec, workloads)
    return set_main(args, spec, workloads)


if __name__ == "__main__":
    sys.exit(main())
