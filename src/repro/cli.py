"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro tables                      # Tables I-III
    python -m repro latency  --platform th-xy   # Figure 4 curves
    python -m repro multinic                    # Figure 5 sweeps
    python -m repro powerllel --platform th-2a  # one Figure 6 cell
    python -m repro fig6     --platform th-2a   # full Figure 6 bars
    python -m repro scaling  --platform th-2a   # Figure 7 series
    python -m repro faults                      # fault-injection demo
    python -m repro faults --kill-node 1        # kill every rail of node 1
    python -m repro chaos                       # resilience soak -> BENCH_resilience.json
    python -m repro trace stream                # observed demo + Perfetto JSON
    python -m repro fingerprints                # golden wire-fingerprint diff
    python -m repro profile latency             # unrprof host-time attribution
    python -m repro lint src/repro              # unrlint determinism rules
    python -m repro check                       # UnrSanitizer runtime checks
    python -m repro verify                      # unrverify HB + protocol pass
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _sizes(text: str) -> List[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from None


def _fault_spec(text: str) -> str:
    from .netsim import FaultSpec

    try:
        FaultSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _artifact_path(output: Optional[str], default_name: str,
                   explicit: Optional[str] = None) -> str:
    """Uniform ``--output`` resolution for bench/trace artifacts.

    ``explicit`` (a legacy per-artifact flag like ``--perfetto PATH``)
    wins outright.  Otherwise: no ``--output`` keeps the historical
    cwd-relative default; an ``--output`` ending in ``.json`` is the
    exact file; anything else is treated as a directory (created if
    missing) that receives the default-named artifact.
    """
    if explicit is not None:
        return explicit
    if output is None:
        return default_name
    if output.endswith(".json"):
        parent = os.path.dirname(output)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return output
    os.makedirs(output, exist_ok=True)
    return os.path.join(output, default_name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UNR (SC 2024) reproduction: run the paper's experiments "
        "on the simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I, II and III")

    p = sub.add_parser("latency", help="Figure 4: UNR vs MPI-RMA latency")
    p.add_argument("--platform", default="th-xy")
    p.add_argument("--sizes", type=_sizes, default=[8, 512, 4096, 65536, 1048576])
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--trace", action="store_true",
                   help="also run one observed UNR ping-pong (largest size) "
                        "and export its Perfetto trace")
    p.add_argument("--perfetto", default="trace_latency.json", metavar="PATH",
                   help="Perfetto output path for --trace")
    p.add_argument("--profile", action="store_true",
                   help="arm the unrprof host-time profiler on the UNR runs "
                        "and print the attribution report")

    p = sub.add_parser("multinic", help="Figure 5: multi-NIC aggregation sweeps")
    p.add_argument("--platform", default="th-xy")
    p.add_argument("--iters", type=int, default=12)

    p = sub.add_parser("powerllel", help="one PowerLLEL run (Figure 6 cell)")
    p.add_argument("--platform", default="th-2a")
    p.add_argument("--backend", choices=["mpi", "unr"], default="unr")
    p.add_argument("--fallback", action="store_true", help="use the UNR MPI-fallback channel")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--py", type=int, default=4)
    p.add_argument("--pz", type=int, default=3)
    p.add_argument("--grid", type=_sizes, default=[384, 384, 288],
                   metavar="NX,NY,NZ")
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--faults", type=_fault_spec, default=None, metavar="SPEC",
                   help="fault schedule, e.g. 'drop=0.3,reorder=0.2,rail_fail@t=5.0' "
                        "(arms the UNR reliability layer)")
    p.add_argument("--fault-seed", type=int, default=None)
    p.add_argument("--trace", action="store_true",
                   help="observe the run and export its Perfetto trace")
    p.add_argument("--perfetto", default="trace_powerllel.json", metavar="PATH",
                   help="Perfetto output path for --trace")
    p.add_argument("--profile", action="store_true",
                   help="arm the unrprof host-time profiler and print the "
                        "attribution report")

    p = sub.add_parser(
        "faults",
        help="fault-injection demo: hostile fabric, correct results, "
             "identical same-seed replays",
    )
    p.add_argument("--faults", type=_fault_spec, default=None, metavar="SPEC",
                   help="fault schedule (default: drop=0.3,reorder=0.2,rail_fail@t=5.0)")
    p.add_argument("--platform", default="th-xy")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--size", type=int, default=262144)
    p.add_argument("--iters", type=int, default=8)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--fault-seed", type=int, default=None)
    p.add_argument("--kill-node", type=int, default=None, metavar="NODE",
                   help="add an endpoint failure: every rail of NODE goes "
                        "dark (arms the health layer; ops degrade to the "
                        "MPI fallback channel)")
    p.add_argument("--kill-at", type=float, default=60.0, metavar="US",
                   help="failure onset in simulated us (default: 60)")
    p.add_argument("--kill-duration", type=float, default=80.0, metavar="US",
                   help="downtime window in us; 0 = permanent fail-stop "
                        "node crash (default: 80)")

    p = sub.add_parser(
        "chaos",
        help="resilience soak: endpoint-kill schedules on the Table III "
             "platforms, degradation + recovery metrics -> "
             "BENCH_resilience.json; exits 1 on a failed verdict or a "
             "blown replication budget",
    )
    p.add_argument("--platform", action="append", dest="platforms",
                   metavar="NAME", default=None,
                   help="platform to include (repeatable; default: all four)")
    p.add_argument("--faults", type=_fault_spec, default=None, metavar="SPEC",
                   help="override the chaos fault schedule")
    p.add_argument("--size", type=int, default=65536)
    p.add_argument("--iters", type=int, default=32)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--fault-seed", type=int, default=3)
    p.add_argument("--replication", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="include the replication-tier leg (warm-failover "
                        "overhead + TTR; default: on)")
    p.add_argument("--team-size", type=int, default=2, metavar="N",
                   help="replicas per rank team for the replication leg "
                        "(default: 2)")
    p.add_argument("--out", default="BENCH_resilience.json", metavar="PATH",
                   help="machine-readable resilience record output")

    p = sub.add_parser("fig6", help="Figure 6: baseline vs UNR vs fallback")
    p.add_argument("--platform", default="th-2a")
    p.add_argument("--steps", type=int, default=2)

    p = sub.add_parser("scaling", help="Figure 7: strong-scaling series")
    p.add_argument("--platform", choices=["th-2a", "th-xy"], default="th-2a")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--max-points", type=int, default=None)

    p = sub.add_parser(
        "trace",
        help="repro.obs demo: run an observed workload, print its timeline "
             "and critical paths, export Perfetto JSON + BENCH_obs.json",
    )
    p.add_argument("demo", nargs="?", choices=["stream", "latency", "powerllel"],
                   default="stream")
    p.add_argument("--platform", default="th-xy")
    p.add_argument("--size", type=int, default=65536)
    p.add_argument("--iters", type=int, default=6)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--faults", type=_fault_spec, default=None, metavar="SPEC",
                   help="fault schedule for the stream demo "
                        "(arms the UNR reliability layer)")
    p.add_argument("--fault-seed", type=int, default=None)
    p.add_argument("--perfetto", default=None, metavar="PATH",
                   help="explicit Perfetto trace_event JSON output path "
                        "(default: trace_obs.json, or under --output)")
    p.add_argument("--bench", default=None, metavar="PATH",
                   help="explicit bench record output path "
                        "(default: BENCH_obs.json, or under --output)")
    p.add_argument("--output", default=None, metavar="DIR",
                   help="directory receiving the default-named artifacts "
                        "(created if missing; the uniform --output "
                        "convention shared with lint/verify/profile)")
    p.add_argument("--no-bench", action="store_true",
                   help="skip writing the bench record")
    p.add_argument("--profile", action="store_true",
                   help="arm the unrprof host-time profiler, print its "
                        "attribution report, and merge its counter tracks "
                        "into the Perfetto export")
    p.add_argument("--limit", type=int, default=30,
                   help="max rows in the printed timeline")

    p = sub.add_parser(
        "fingerprints",
        help="golden wire-fingerprint corpus: recompute four schedules "
             "per Table III platform and diff against the committed "
             "golden file (--write regenerates it)",
    )
    p.add_argument("--path", default=None, metavar="PATH",
                   help="golden corpus file (default: "
                        "tests/core/fixtures/golden_fingerprints.json)")
    p.add_argument("--write", action="store_true",
                   help="regenerate the golden file from the current run "
                        "instead of diffing against it")

    p = sub.add_parser(
        "profile",
        help="unrprof: host-time self-profile of a bench workload — "
             "per-event-kind/per-layer attribution, engine dispatch "
             "timing, flamegraph stacks -> BENCH_profile.json",
    )
    p.add_argument("workload", nargs="?", default="latency",
                   choices=["latency", "stream", "powerllel"])
    p.add_argument("--platform", default="th-xy")
    p.add_argument("--size", type=int, default=4096)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--sample-every", type=int, default=0, metavar="N",
                   help="collapsed-stack sampling period (0 = exact per-kind "
                        "totals only)")
    p.add_argument("--top", type=int, default=14,
                   help="rows in the printed top-kinds table")
    p.add_argument("--flame", default=None, metavar="PATH",
                   help="write collapsed stacks (flamegraph.pl input) to PATH")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="BENCH_profile.json destination: a .json file, or a "
                        "directory for the default-named artifact "
                        "(default: BENCH_profile.json in the cwd)")
    p.add_argument("--overhead-repeats", type=int, default=0, metavar="N",
                   help="also measure profiler overhead on a 64 KiB PUT "
                        "ping-pong + GET pull: N interleaved observed/profiled "
                        "pairs, gated on the best-of-N wall-time ratio")
    p.add_argument("--max-overhead-pct", type=float, default=None, metavar="PCT",
                   help="fail (exit 1) when measured profiler overhead "
                        "exceeds PCT percent (implies --overhead-repeats 3)")

    p = sub.add_parser(
        "lint",
        help="unrlint: static determinism rules UNR001-UNR013 over Python sources",
    )
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--select", default=None, metavar="IDS",
                   help="comma-separated rule ids to check (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")
    p.add_argument("--format", default="text", choices=("text", "json", "sarif"),
                   help="finding output format (default: text)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write findings to PATH instead of stdout")

    p = sub.add_parser(
        "verify",
        help="unrverify: happens-before trace verifier (VER001-VER004) over "
             "the golden corpus, the seeded mutation corpus, and the static "
             "protocol pass (UNR010/UNR011)",
    )
    p.add_argument("--corpus", default="all", choices=("golden", "mutants", "all"),
                   help="which corpus to run (default: all)")
    p.add_argument("--platform", action="append", default=None, metavar="NAME",
                   help="restrict the golden corpus to this platform "
                        "(repeatable; default: all four)")
    p.add_argument("--no-static", action="store_true",
                   help="skip the static protocol-conformance sweep")
    p.add_argument("--format", default="text", choices=("text", "json", "sarif"),
                   help="finding output format (default: text)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write findings to PATH instead of stdout")

    p = sub.add_parser(
        "check",
        help="UnrSanitizer runtime checks: sanitized stream demo + "
             "deliberate-violation self-test",
    )
    p.add_argument("--platform", default="th-xy")
    p.add_argument("--size", type=int, default=65536)
    p.add_argument("--iters", type=int, default=4)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--no-selftest", action="store_true",
                   help="skip the deliberate-violation battery")

    return parser


def cmd_tables(args) -> int:
    from .bench import format_table
    from .core import max_signals
    from .interconnect import TABLE_II, support_level
    from .platforms import table3_rows

    print("Table I: UNR support levels")
    from .core.levels import _policy_from_bits  # noqa: PLC2701 - report only

    rows = []
    for bits, offload in [(0, False), (8, False), (16, False), (32, False),
                          (64, False), (128, False), (128, True)]:
        pol = _policy_from_bits(bits, offload, None)
        rows.append([
            pol.level, bits,
            "ordered (p,a) msg" if pol.level == 0 else f"p:{pol.p_bits}b a:{pol.a_bits}b",
            min(max_signals(pol), 1 << 62),
            "yes" if pol.multi_channel else "no",
            "no" if pol.level == 4 else "yes",
        ])
    print(format_table(
        ["level", "bits", "encoding", "max signals", "multi-chan", "polling"], rows
    ))

    print("\nTable II: NIC capabilities")
    rows = [
        [c.interface, c.display("put_local"), c.display("put_remote"),
         c.display("get_local"), c.display("get_remote"), f"Level-{support_level(c)}"]
        for c in TABLE_II.values()
    ]
    print(format_table(
        ["interface", "PUT loc", "PUT rem", "GET loc", "GET rem", "level"], rows
    ))

    print("\nTable III: platforms")
    rows = [[r["system"], r["nics"], r["used_nodes"], r["channel"]] for r in table3_rows()]
    print(format_table(["system", "NIC(s)", "nodes", "channel"], rows))
    return 0


def cmd_latency(args) -> int:
    from .bench import format_size, format_table, latency_table

    prof = None
    if args.profile:
        from .obs import HostProfiler

        prof = HostProfiler()
    table = latency_table(args.platform, args.sizes, args.iters)
    rows = [
        [format_size(s)]
        + [round(table[k][i], 2) for k in ("unr", "fence", "pscw", "lock")]
        for i, s in enumerate(args.sizes)
    ]
    print(f"Figure 4 ({args.platform}): half round-trip latency (us)")
    print(format_table(["size", "UNR", "fence", "PSCW", "lock"], rows))
    if args.trace or prof is not None:
        from .bench import unr_pingpong

        out = {}
        size = args.sizes[-1]
        if prof is not None:
            with prof.window():
                unr_pingpong(args.platform, size, args.iters, out=out,
                             profiler=prof)
        else:
            unr_pingpong(args.platform, size, args.iters, out=out)
        rec = out["recorder"]
        snap = rec.snapshot()
        if args.trace:
            from .obs import write_perfetto

            write_perfetto(rec, args.perfetto, prof)
            print(f"trace: {format_size(size)} ping-pong — "
                  f"{snap['n_transfers']} transfers, {snap['n_spans']} spans, "
                  f"{int(snap['counters']['sim.events'])} sim events "
                  f"-> {args.perfetto}")
    if prof is not None:
        print()
        print(prof.report())
    return 0


def cmd_multinic(args) -> int:
    from .bench import aggregation_sweep, format_size, imbalance_sweep

    sizes = (32768, 262144, 1048576, 4194304)
    agg = aggregation_sweep(args.platform, sizes, args.iters)
    imb = imbalance_sweep(args.platform, sizes, args.iters)
    print(f"Figure 5 ({args.platform}): shared-NIC throughput improvement")
    for i, s in enumerate(sizes):
        print(f"  {format_size(s):>6}:  balanced {agg['improvement'][i]*100:6.1f}%   "
              f"N(T,0.3T) {imb['improvement'][i]*100:6.1f}%")
    return 0


def cmd_powerllel(args) -> int:
    from .bench import powerllel_point

    prof = None
    if args.profile:
        from .obs import HostProfiler

        prof = HostProfiler()
    kwargs = dict(
        backend=args.backend, fallback=args.fallback,
        nodes=args.nodes, py=args.py, pz=args.pz,
        steps=args.steps,
        faults=args.faults, fault_seed=args.fault_seed,
        observe=args.trace, profiler=prof,
    )
    nx, ny, nz = args.grid
    if prof is not None:
        with prof.window():
            res = powerllel_point(args.platform, nx=nx, ny=ny, nz=nz, **kwargs)
    else:
        res = powerllel_point(args.platform, nx=nx, ny=ny, nz=nz, **kwargs)
    p = res["phases"]
    print(f"PowerLLEL [{args.backend}{'+fallback' if args.fallback else ''}"
          f"{'+faults' if args.faults else ''}] "
          f"{nx}x{ny}x{nz} on {args.nodes} {args.platform} nodes:")
    print(f"  total {res['time']*1e3:.3f} ms  "
          f"(vel {p['vel_update']*1e3:.3f}, ppe {p['ppe']*1e3:.3f}, "
          f"other {p['other']*1e3:.3f})")
    if args.trace:
        from .obs import write_perfetto

        rec = res["recorder"]
        snap = rec.snapshot()
        write_perfetto(rec, args.perfetto, prof)
        print(f"  trace {snap['n_transfers']} transfers, {snap['n_spans']} spans, "
              f"{int(snap['counters']['sim.events'])} sim events "
              f"-> {args.perfetto}")
    if prof is not None:
        print()
        print(prof.report())
    return 0


def cmd_faults(args) -> int:
    from .bench import DEFAULT_FAULTS, fault_demo
    from .core import UnrPeerDeadError, UnrTimeoutError

    spec_text = args.faults or DEFAULT_FAULTS
    health = args.kill_node is not None
    if health:
        if args.kill_duration > 0:
            kill = (f"endpoint_down@t={args.kill_at}:dur={args.kill_duration}"
                    f":node={args.kill_node}")
        else:
            kill = f"node_crash@t={args.kill_at}:node={args.kill_node}"
        spec_text = f"{spec_text},{kill}" if spec_text else kill
    try:
        out = fault_demo(
            spec_text, platform=args.platform, n_nodes=args.nodes,
            size=args.size, iters=args.iters, seed=args.seed,
            fault_seed=args.fault_seed, health=health,
        )
    except UnrPeerDeadError as exc:
        print(f"Fault demo on {args.platform}: schedule {spec_text!r} "
              f"killed the peer for good:\n  {exc}")
        print("  verdict      PEER DEAD (permanent node crash: even the "
              "fallback lane is down)")
        return 1
    except UnrTimeoutError as exc:
        print(f"Fault demo on {args.platform}: schedule {spec_text!r} "
              f"defeated the reliability layer:\n  {exc}")
        print("  verdict      FAILED (raise max_retries or soften the schedule)")
        return 1
    spec = out["spec"]
    r0, r1 = out["runs"]
    print(f"Fault demo on {args.platform} ({args.nodes} nodes, "
          f"{args.iters} x {args.size} B, fault seed {spec.seed:#x}):")
    print(f"  schedule     {spec_text}")
    print(f"  fabric       {r0['faults']}")
    print(f"  reliability  retransmits={r0['retransmits']} "
          f"duplicates_suppressed={r0['duplicates_suppressed']}")
    print(f"  trace        {r0['trace']['n_messages']} messages, "
          f"{r0['trace']['n_dropped']} dropped")
    print(f"  delivered    {r0['correct']}/{out['iters']} intact "
          f"(run 2: {r1['correct']}/{out['iters']})")
    if health:
        print(f"  resilience   degraded_ops={r0['degraded_ops']} "
              f"repromotions={r0['repromotions']}")
    print(f"  replay       traces {'IDENTICAL' if out['identical'] else 'DIVERGED'} "
          f"({r0['fingerprint'][:16]}… vs {r1['fingerprint'][:16]}…)")
    ok = out["correct"] and out["identical"]
    print("  verdict      " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def cmd_chaos(args) -> int:
    from .bench import (
        DEFAULT_CHAOS_FAULTS,
        resilience_bench,
        resilience_failures,
        validate_resilience_bench,
        write_resilience_bench,
    )

    faults = args.faults or DEFAULT_CHAOS_FAULTS
    record = resilience_bench(
        args.platforms, faults=faults, size=args.size, iters=args.iters,
        seed=args.seed, fault_seed=args.fault_seed,
        replication=args.replication, team_size=args.team_size,
    )
    errors = validate_resilience_bench(record)
    if errors:
        print(f"chaos: record FAILED validation: {'; '.join(errors)}")
        return 1
    print(f"Chaos soak ({args.iters} x {args.size} B per platform):")
    print(f"  schedule     {faults}")
    for name, block in record["platforms"].items():
        r = block["runs"][0]
        ttr = r["time_to_recover_us"]
        print(f"  {name:10s} correct={'yes' if block['correct'] else 'NO'} "
              f"identical={'yes' if block['identical'] else 'NO'} "
              f"degraded_ops={r['degraded_ops']} "
              f"recovered_ops={r['recovered_ops']} "
              f"repromotions={r['repromotions']} "
              f"ttr_p50={ttr['p50']:.1f}us")
    rep = record.get("replication")
    if rep is not None:
        ttr = rep["p95_failover_ttr_us"]
        print(f"  replication  team_size={rep['team_size']} "
              f"overhead={rep['overhead_ratio']:.3f}x "
              f"ttr_p95={ttr:.1f}us "
              f"correct={'yes' if rep['correct'] else 'NO'} "
              f"identical={'yes' if rep['identical'] else 'NO'} "
              f"divergence={'ok' if rep['divergence_ok'] else 'SPLIT-BRAIN'}")
        for name, block in rep["platforms"].items():
            print(f"    {name:10s} overhead={block['overhead_ratio']:.3f}x "
                  f"failovers={block['crash']['failovers']} "
                  f"ttr_p95={block['crash']['ttr_us']['p95']:.1f}us")
    write_resilience_bench(record, args.out)
    print(f"  -> {args.out}")
    failures = resilience_failures(record)
    for failure in failures:
        print(f"  FAILED       {failure}")
    print("  verdict      " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


def cmd_trace(args) -> int:
    from .bench import trace_demo
    from .obs import (
        bench_record,
        text_timeline,
        validate_bench,
        validate_trace_file,
        write_bench,
        write_perfetto,
    )

    if args.output is not None and args.output.endswith(".json"):
        print("trace: --output names the artifact *directory* "
              "(use --perfetto/--bench for explicit file paths)",
              file=sys.stderr)
        return 2
    perfetto_path = _artifact_path(args.output, "trace_obs.json", args.perfetto)
    bench_path = _artifact_path(args.output, "BENCH_obs.json", args.bench)
    prof = None
    if args.profile:
        from .obs import HostProfiler

        prof = HostProfiler()
    if prof is not None:
        with prof.window():
            out = trace_demo(
                args.demo, platform=args.platform, size=args.size,
                iters=args.iters, seed=args.seed, faults=args.faults,
                fault_seed=args.fault_seed, profiler=prof,
            )
    else:
        out = trace_demo(
            args.demo, platform=args.platform, size=args.size, iters=args.iters,
            seed=args.seed, faults=args.faults, fault_seed=args.fault_seed,
        )
    rec = out["recorder"]
    snap = rec.snapshot()
    print(f"Trace demo '{args.demo}' on {args.platform}: "
          f"t_end={snap['t_end'] * 1e6:.2f} us, "
          f"{snap['n_transfers']} transfers, {snap['n_spans']} spans, "
          f"{snap['n_events']} markers, "
          f"{int(snap['counters']['sim.events'])} sim events "
          f"(heap depth max {int(snap['gauges']['sim.heap_depth_max'])})")

    print("\ntimeline (simulated time, us):")
    print(text_timeline(rec, limit=args.limit))

    interesting = ("core.sig_wait_us", "net.frag_latency_us",
                   "core.poll_dispatch_delay_us")
    shown = [k for k in interesting if k in snap["histograms"]]
    if shown:
        print("\nlatency histograms:")
        for key in shown:
            h = snap["histograms"][key]
            print(f"  {key:28s} n={h['count']:<5d} "
                  f"mean={h['mean']:.2f} min={h['min']:.2f} max={h['max']:.2f}")

    print("\nper-rank critical paths:")
    for track in rec.spans.tracks():
        path = rec.spans.critical_path(track)
        if not path:
            continue
        chain = " > ".join(f"{s.name}({s.duration * 1e6:.2f}us)" for s in path)
        print(f"  {track}: {chain}")

    if prof is not None:
        print()
        print(prof.report())

    write_perfetto(rec, perfetto_path, prof)
    try:
        validate_trace_file(perfetto_path)
    except ValueError as exc:
        print(f"\nperfetto: {perfetto_path} FAILED schema validation: {exc}")
        return 1
    print(f"\nperfetto: {perfetto_path} (load at https://ui.perfetto.dev)")

    if not args.no_bench:
        record = bench_record(
            rec, name=out["name"], platform=args.platform, params=out["params"],
        )
        errors = validate_bench(record)
        if errors:
            print(f"bench: record FAILED validation: {'; '.join(errors)}")
            return 1
        write_bench(record, bench_path)
        print(f"bench: {bench_path} "
              f"(fingerprint {record['transfer_fingerprint'][:16]}…)")
    return 0


def cmd_fig6(args) -> int:
    from .bench import fig6_platform

    out = fig6_platform(args.platform, args.steps)
    print(f"Figure 6 ({args.platform}):")
    for key in ("mpi", "unr", "unr_fallback"):
        r = out[key]
        extra = f"  speedup {out['mpi']['time']/r['time']:.3f}x" if key != "mpi" else ""
        print(f"  {key:12s} {r['time']*1e3:9.3f} ms{extra}")
    return 0


def cmd_scaling(args) -> int:
    from .bench import fig7_scaling, format_table

    rows = fig7_scaling(args.platform, args.steps, args.max_points)
    print(f"Figure 7 ({args.platform}): strong scaling")
    print(format_table(
        ["nodes", "time (s)", "vel", "ppe", "efficiency"],
        [[r["nodes"], r["time"], r["vel_update"], r["ppe"],
          round(r["efficiency"], 3)] for r in rows],
    ))
    return 0


def cmd_fingerprints(args) -> int:
    from .bench.fingerprints import (
        GOLDEN_PATH,
        collect_fingerprints,
        compare_corpus,
        write_corpus,
    )

    path = args.path or GOLDEN_PATH
    entries = collect_fingerprints()
    if args.write:
        write_corpus(path, entries=entries)
        print(f"fingerprints: wrote {len(entries)} golden entries -> {path}")
        return 0
    problems = compare_corpus(path, entries=entries)
    if problems:
        print(f"fingerprints: {len(problems)} mismatch(es) against {path}:")
        for line in problems:
            print(f"  {line}")
        print("  (intentional wire change? regenerate with --write)")
        return 1
    print(f"fingerprints: {len(entries)} entries match {path}")
    return 0


def cmd_profile(args) -> int:
    from .bench import (
        profile_bench,
        validate_profile_bench,
        write_profile_bench,
    )
    from .obs import HostProfiler

    overhead_repeats = args.overhead_repeats
    if args.max_overhead_pct is not None and overhead_repeats <= 0:
        overhead_repeats = 3
    prof = HostProfiler(sample_every=args.sample_every)
    record = profile_bench(
        args.workload, args.platform,
        size=args.size, iters=args.iters, seed=args.seed,
        sample_every=args.sample_every,
        overhead_repeats=overhead_repeats, profiler=prof,
    )
    errors = validate_profile_bench(record)
    if errors:
        print(f"profile: record FAILED validation: {'; '.join(errors)}")
        return 1
    print(f"unrprof '{args.workload}' on {args.platform} "
          f"(size {args.size}, iters {args.iters}):")
    print(prof.report(top=args.top))
    sim = record.get("sim")
    if sim and sim.get("histograms"):
        print("  sim latency percentiles (us):")
        for name in sorted(sim["histograms"]):
            h = sim["histograms"][name]
            print(f"    {name:28s} n={h['count']:<5d} p50={h['p50']:.2f} "
                  f"p95={h['p95']:.2f} p99={h['p99']:.2f}")
    out_path = _artifact_path(args.output, "BENCH_profile.json")
    write_profile_bench(record, out_path)
    print(f"  -> {out_path} (coverage {record['coverage']:.1%})")
    if args.flame:
        prof.write_collapsed(args.flame)
        print(f"  -> {args.flame} (collapsed stacks; feed to flamegraph.pl)")
    overhead = record.get("overhead")
    if overhead is not None:
        pct = (overhead["ratio"] - 1.0) * 100.0
        print(f"  overhead: observed {overhead['observed_ms']:.2f} ms vs "
              f"profiled {overhead['profiled_ms']:.2f} ms "
              f"({pct:+.1f}%, best of {overhead['repeats']} pairs)")
        if args.max_overhead_pct is not None and pct > args.max_overhead_pct:
            print(f"  verdict FAILED: profiler overhead {pct:.1f}% > "
                  f"{args.max_overhead_pct}%")
            return 1
    return 0


def _emit_findings(findings, fmt: str, output: Optional[str], tool: str) -> None:
    """Serialize a finding stream per --format, to stdout or --output."""
    from .analysis import serialize_findings

    text = serialize_findings(findings, fmt, tool_name=tool)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{tool}: wrote {len(findings)} finding(s) [{fmt}] -> {output}")
    elif text:
        sys.stdout.write(text)


def cmd_lint(args) -> int:
    from .analysis import RULES, LintConfig, lint_paths

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.summary}")
            print(f"        fix: {rule.hint}")
        return 0
    select = None
    if args.select:
        select = frozenset(s.strip() for s in args.select.split(",") if s.strip())
        unknown = select - set(RULES)
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}")
            return 2
    config = LintConfig(select=select)
    findings = lint_paths(args.paths, config=config)
    # json/sarif always emit a document (possibly empty) so CI uploads
    # have a file either way; text keeps the human-readable summary.
    if args.format != "text" or args.output:
        _emit_findings(findings, args.format, args.output, "unrlint")
        return 1 if findings else 0
    if findings:
        from .analysis import format_findings

        print(format_findings(findings))
        return 1
    print(f"unrlint: {', '.join(args.paths)} clean "
          f"({len(RULES) if select is None else len(select)} rules)")
    return 0


def cmd_verify(args) -> int:
    from .analysis import LintConfig, lint_paths, verify_corpus
    from .analysis.mutants import run_all_mutants
    from .bench.fingerprints import load_corpus

    all_findings = []
    ok = True

    if args.corpus in ("golden", "all"):
        golden = load_corpus()
        reports = verify_corpus(platforms=args.platform)
        clean = sum(1 for r in reports if r.ok)
        print(f"verify: golden corpus  {clean}/{len(reports)} scenarios clean")
        for report in reports:
            if report.findings:
                ok = False
                all_findings.extend(report.findings)
                for f in report.findings:
                    print(f"    {f.format()}")
            expected = golden.get(report.origin)
            if expected is not None and report.fingerprint != expected:
                ok = False
                print(f"    {report.origin}: armed fingerprint diverged from "
                      f"golden ({expected[:12]}.. != "
                      f"{(report.fingerprint or '?')[:12]}..)")

    if args.corpus in ("mutants", "all"):
        outcomes = run_all_mutants()
        caught = sum(1 for o in outcomes if o.flagged)
        print(f"verify: mutant corpus  {caught}/{len(outcomes)} seeded bugs flagged")
        for o in outcomes:
            mark = "ok  " if o.flagged else "MISS"
            got = ",".join(o.got) if o.got else "-"
            print(f"    {mark} {o.name}  expect {'|'.join(o.expect)}  got {got}")
            if not o.flagged:
                ok = False

    if not args.no_static:
        scopes = ["src/repro/powerllel", "src/repro/collectives", "examples"]
        config = LintConfig(select=frozenset({"UNR010", "UNR011"}),
                            force_protocol=True)
        static = lint_paths(scopes, config=config)
        print(f"verify: static pass    {len(static)} UNR010/UNR011 finding(s) "
              f"over {', '.join(scopes)}")
        if static:
            ok = False
            all_findings.extend(static)
            for f in static:
                print(f"    {f.format()}")

    if args.format != "text" or args.output:
        _emit_findings(all_findings, args.format, args.output, "unrverify")
    print("verify: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def cmd_check(args) -> int:
    from .analysis.selfcheck import (
        SELFTEST_KINDS,
        sanitized_stream_demo,
        sanitizer_selftest,
    )

    demo = sanitized_stream_demo(
        platform=args.platform, size=args.size, iters=args.iters, seed=args.seed,
    )
    report = demo["report"]
    print(f"UnrSanitizer check on {args.platform} "
          f"({args.iters} x {args.size} B stream):")
    print(f"  armed run     {len(report)} finding(s) (expected 0)")
    if len(report):
        for finding in report:
            print(f"    {finding.format()}")
    print(f"  delivery      {'intact' if demo['correct'] else 'CORRUPTED'}")
    print(f"  trace         armed vs disarmed fingerprints "
          f"{'IDENTICAL' if demo['identical'] else 'DIVERGED'}")
    ok = report.ok and demo["identical"] and demo["correct"]

    if not args.no_selftest:
        results = sanitizer_selftest(args.platform)
        caught = sum(1 for r in results.values() if r["found"])
        print(f"  self-test     {caught}/{len(SELFTEST_KINDS)} deliberate "
              "violations caught:")
        for kind, res in results.items():
            print(f"    {'ok  ' if res['found'] else 'MISS'} {kind}")
        ok = ok and caught == len(SELFTEST_KINDS)

    print("  verdict       " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


_COMMANDS = {
    "tables": cmd_tables,
    "latency": cmd_latency,
    "multinic": cmd_multinic,
    "powerllel": cmd_powerllel,
    "faults": cmd_faults,
    "chaos": cmd_chaos,
    "trace": cmd_trace,
    "fingerprints": cmd_fingerprints,
    "profile": cmd_profile,
    "fig6": cmd_fig6,
    "scaling": cmd_scaling,
    "lint": cmd_lint,
    "verify": cmd_verify,
    "check": cmd_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
