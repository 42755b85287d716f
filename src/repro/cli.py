"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro paper                       # Tables I-III, Figs 4-7: the claims ledger
    python -m repro paper --only fig6           # one table or figure
    python -m repro latency  --platform th-xy   # Figure 4 curves, any sizes
    python -m repro powerllel --platform th-2a  # one Figure 6 cell
    python -m repro faults                      # the producer→consumer stream under faults
    python -m repro faults --kill-node 1        # kill every rail of node 1
    python -m repro chaos                       # resilience soak -> BENCH_resilience.json
    python -m repro trace stream                # the stream over an RMA plan, observed
    python -m repro trace latency --profile     # + unrprof host-time attribution
    python -m repro fingerprints                # golden corpus diff: wire + witnesses
    python -m repro lint src/repro examples     # unrlint determinism rules
    python -m repro verify                      # unrverify happens-before checker
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _sizes(text: str) -> List[int]:
    try:
        sizes = [int(s) for s in text.split(",") if s]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}: want positive integers")
    return sizes


def _grid(text: str) -> List[int]:
    grid = _sizes(text)
    if len(grid) != 3:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: want three sizes NX,NY,NZ")
    return grid


def _check_powerllel(args) -> None:
    """What argparse cannot check one argument at a time: exit 2 before
    any simulation on a layout the run would refuse later."""
    from .platforms import get_platform

    max_nodes = get_platform(args.platform).max_nodes
    if args.nodes != args.py * args.pz or args.nodes > max_nodes:
        args.error(f"argument --nodes: want --py x --pz = {args.py * args.pz} nodes, "
                   f"{args.platform} has {max_nodes}; got {args.nodes}")
    for flag in ("faults", "fallback"):
        if getattr(args, flag) and args.backend != "unr":
            args.error(f"argument --{flag}: needs --backend unr (the MPI baseline "
                       "has neither the reliability layer nor the fallback channel)")


def _at_least(low: float, kind: type = int):
    """An argparse ``type``: a ``kind`` (int or float) no smaller than
    ``low`` (a float NaN is refused too)."""

    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" on a non-number
    return parse


def _fault_spec(text: str) -> str:
    from .netsim import FaultSpec

    try:
        FaultSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    from .bench.paper import FIGURES
    from .platforms import PLATFORMS

    platforms = tuple(PLATFORMS)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UNR (SC 2024) reproduction: run the paper's experiments "
        "on the simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "paper",
        help="the claims ledger: compute Tables I-III and Figures 4-7, check "
             "every claim against its bound and the paper's value, and diff "
             "against the committed benchmarks/claims.json (exit 1 on a NO-GO "
             "or a difference)",
    )
    p.add_argument("--only", choices=tuple(FIGURES), default=None,
                   help="compute one table or figure (default: all)")
    p.add_argument("--write", action="store_true",
                   help="regenerate benchmarks/claims.json and EXPERIMENTS.md's "
                        "tables instead of diffing against them")

    p = sub.add_parser("latency", help="Figure 4: UNR vs MPI-RMA latency")
    p.add_argument("--platform", choices=platforms, default="th-xy")
    p.add_argument("--sizes", type=_sizes, default=[8, 512, 4096, 65536, 1048576])
    p.add_argument("--iters", type=_at_least(1), default=10)

    p = sub.add_parser("powerllel", help="one PowerLLEL run (Figure 6 cell)")
    p.add_argument("--platform", choices=platforms, default="th-2a")
    p.add_argument("--backend", choices=["mpi", "unr"], default="unr")
    p.add_argument("--fallback", action="store_true", help="use the UNR MPI-fallback channel")
    p.add_argument("--nodes", type=_at_least(1), default=12)
    p.add_argument("--py", type=_at_least(1), default=4)
    p.add_argument("--pz", type=_at_least(1), default=3)
    p.add_argument("--grid", type=_grid, default=[384, 384, 288], metavar="NX,NY,NZ")
    p.add_argument("--steps", type=_at_least(1), default=2)
    p.add_argument("--faults", type=_fault_spec, default=None, metavar="SPEC",
                   help="fault schedule, e.g. 'drop=0.3,reorder=0.2,rail_fail@t=5.0' "
                        "(arms the UNR reliability layer)")
    p.add_argument("--fault-seed", type=int, default=None)
    p.set_defaults(error=p.error)

    p = sub.add_parser(
        "faults",
        help="fault-injection demo: hostile fabric, correct results, "
             "identical same-seed replays",
    )
    p.add_argument("--faults", type=_fault_spec, default=None, metavar="SPEC",
                   help="fault schedule (default: drop=0.3,reorder=0.2,rail_fail@t=5.0)")
    p.add_argument("--platform", choices=platforms, default="th-xy")
    p.add_argument("--size", type=_at_least(1), default=262144)
    p.add_argument("--iters", type=_at_least(1), default=8)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--fault-seed", type=int, default=None)
    p.add_argument("--kill-node", type=int, default=None, metavar="NODE",
                   help="add an endpoint failure: every rail of NODE goes "
                        "dark (arms the health layer; ops degrade to the "
                        "MPI fallback channel)")
    p.add_argument("--kill-at", type=_at_least(0.0, float), default=60.0, metavar="US",
                   help="failure onset in simulated us (default: 60)")
    p.add_argument("--kill-duration", type=_at_least(0.0, float), default=80.0,
                   metavar="US",
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
                   choices=platforms, default=None,
                   help="platform to include (repeatable; default: all four)")
    p.add_argument("--faults", type=_fault_spec, default=None, metavar="SPEC",
                   help="override the chaos fault schedule")
    p.add_argument("--size", type=_at_least(1), default=65536)
    p.add_argument("--iters", type=_at_least(1), default=32)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--fault-seed", type=int, default=3)
    p.add_argument("--replication", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="include the replication-tier leg (replica-world "
                        "overhead + failover TTR; default: on)")
    p.add_argument("--team-size", type=_at_least(2), default=2, metavar="N",
                   help="replicas per rank team for the replication leg "
                        "(default: 2)")
    p.add_argument("--out", default="BENCH_resilience.json", metavar="PATH",
                   help="machine-readable resilience record output")

    p = sub.add_parser(
        "trace",
        help="observe one run: print its timeline, latency percentiles and "
             "critical paths (--profile: host-time attribution too) and "
             "write one Perfetto JSON file",
    )
    p.add_argument("demo", nargs="?", choices=["stream", "latency", "powerllel"],
                   default="stream")
    p.add_argument("--platform", choices=platforms, default="th-xy")
    p.add_argument("--size", type=_at_least(1), default=65536)
    p.add_argument("--iters", type=_at_least(1), default=6)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--faults", type=_fault_spec, default=None, metavar="SPEC",
                   help="fault schedule for the stream demo "
                        "(arms the UNR reliability layer)")
    p.add_argument("--fault-seed", type=int, default=None)
    p.add_argument("--perfetto", default="trace_obs.json", metavar="PATH",
                   help="Perfetto trace_event JSON output path "
                        "(default: trace_obs.json)")
    p.add_argument("--profile", action="store_true",
                   help="arm the unrprof host-time profiler: print its "
                        "attribution report, put its tables and counter "
                        "tracks in the Perfetto file, exit 1 below "
                        "90%% coverage")
    p.add_argument("--flame", default=None, metavar="PATH",
                   help="write collapsed stacks (flamegraph.pl input) to "
                        "PATH; implies --profile")
    p.add_argument("--limit", type=_at_least(0), default=30,
                   help="max rows in the printed timeline")

    p = sub.add_parser(
        "fingerprints",
        help="golden corpus: recompute four wire schedules per Table III "
             "platform and the seven witness entries and diff against the "
             "committed golden file (--write regenerates it)",
    )
    p.add_argument("--path", default=None, metavar="PATH",
                   help="golden corpus file (default: "
                        "tests/core/fixtures/golden_fingerprints.json)")
    p.add_argument("--write", action="store_true",
                   help="regenerate the golden file from the current run "
                        "instead of diffing against it")

    p = sub.add_parser(
        "lint",
        help="unrlint: static determinism rules (UNR001-UNR005) over "
             "Python sources",
    )
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--select", default=None, metavar="IDS",
                   help="comma-separated rule ids to check (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")

    p = sub.add_parser(
        "verify",
        help="unrverify: happens-before trace verifier (VER001-VER004) over "
             "the golden corpus and the seeded mutation corpus",
    )
    p.add_argument("--corpus", default="all", choices=("golden", "mutants", "all"),
                   help="which corpus to run (default: all)")
    p.add_argument("--platform", action="append", choices=platforms, default=None,
                   help="restrict the golden corpus to this platform "
                        "(repeatable; default: all four)")

    return parser


def cmd_paper(args) -> int:
    from .bench import paper

    if not args.write and not paper.CLAIMS_PATH.is_file():
        print(f"paper: no such file: {paper.CLAIMS_PATH}")
        return 2
    record = paper.compute(args.only)
    print(paper.render_text(record))
    no_go = any(c["verdict"] == paper.NO_GO for c in paper.entries(record))
    if args.write:
        paper.write(record)
        print(f"paper: wrote {paper.CLAIMS_PATH} and the tables of {paper.EXPERIMENTS_PATH}")
        return 1 if no_go else 0
    drift = paper.diff(record, paper.load_record())
    for line in drift:
        print(f"  differs      {line}")
    if drift:
        print("  (an intended change? regenerate with --write)")
    return 1 if no_go or drift else 0


def cmd_latency(args) -> int:
    from .bench import format_size, format_table, latency_table

    table = latency_table(args.platform, args.sizes, args.iters)
    rows = [
        [format_size(s)]
        + [round(table[k][i], 2) for k in ("unr", "fence", "pscw", "lock")]
        for i, s in enumerate(args.sizes)
    ]
    print(f"Figure 4 ({args.platform}): half round-trip latency (us)")
    print(format_table(["size", "UNR", "fence", "PSCW", "lock"], rows))
    return 0


def cmd_powerllel(args) -> int:
    from .bench import powerllel_point

    nx, ny, nz = args.grid
    res = powerllel_point(
        args.platform, nx=nx, ny=ny, nz=nz,
        backend=args.backend, fallback=args.fallback,
        nodes=args.nodes, py=args.py, pz=args.pz, steps=args.steps,
        faults=args.faults, fault_seed=args.fault_seed,
    )
    p = res["phases"]
    print(f"PowerLLEL [{args.backend}{'+fallback' if args.fallback else ''}"
          f"{'+faults' if args.faults else ''}] "
          f"{nx}x{ny}x{nz} on {args.nodes} {args.platform} nodes:")
    print(f"  total {res['time']*1e3:.3f} ms  "
          f"(vel {p['vel_update']*1e3:.3f}, ppe {p['ppe']*1e3:.3f}, "
          f"other {p['other']*1e3:.3f})")
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
            spec_text, platform=args.platform, size=args.size, iters=args.iters,
            seed=args.seed, fault_seed=args.fault_seed, health=health,
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
        print("  verdict      FAILED (soften the schedule)")
        return 1
    spec = out["spec"]
    r0, r1 = out["runs"]
    print(f"Fault demo on {args.platform} (2 nodes, "
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
        write_resilience_bench,
    )

    faults = args.faults or DEFAULT_CHAOS_FAULTS
    record = resilience_bench(
        args.platforms, faults=faults, size=args.size, iters=args.iters,
        seed=args.seed, fault_seed=args.fault_seed,
        replication=args.replication, team_size=args.team_size,
    )
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
              f"identical={'yes' if rep['identical'] else 'NO'}")
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
    from .bench import powerllel_point, run_stream, unr_pingpong
    from .netsim import FaultSpec
    from .obs import HostProfiler, text_timeline, validate_trace_file, write_perfetto
    from .obs.profile import COVERAGE_FLOOR

    if args.faults and args.demo != "stream":
        print(f"repro trace: error: --faults applies to the stream demo only, "
              f"not {args.demo!r}", file=sys.stderr)
        return 2
    prof = None
    if args.profile or args.flame:
        prof = HostProfiler(sample_every=1 if args.flame else 0)
    with prof.window() if prof is not None else nullcontext():
        if args.demo == "stream":  # the stream over a recorded RMA plan
            faults = (FaultSpec.parse(args.faults, seed=args.fault_seed)
                      if args.faults else None)
            _, _, rec = run_stream(
                faults, platform=args.platform, size=args.size, iters=args.iters,
                seed=args.seed, observe=True, profiler=prof, plan=True,
            )
        elif args.demo == "latency":  # the Figure 4 UNR ping-pong
            out: dict = {}
            unr_pingpong(args.platform, args.size, args.iters, out=out, profiler=prof)
            rec = out["recorder"]
        else:  # a small PowerLLEL grid on the UNR backend
            rec = powerllel_point(
                args.platform, nodes=4, py=2, pz=2, nx=64, ny=64, nz=64,
                backend="unr", steps=1, seed=args.seed, observe=True, profiler=prof,
            )["recorder"]
    snap = rec.snapshot()
    print(f"Trace demo '{args.demo}' on {args.platform}: "
          f"t_end={snap['t_end'] * 1e6:.2f} us, "
          f"{snap['n_transfers']} transfers, {snap['n_spans']} spans, "
          f"{snap['n_events']} markers, "
          f"{int(snap['counters']['sim.events'])} sim events "
          f"(heap depth max {int(snap['gauges']['sim.heap_depth_max'])})")

    print("\ntimeline (simulated time, us):")
    print(text_timeline(rec, limit=args.limit))

    interesting = ("core.sig_wait_us", "core.poll_dispatch_delay_us",
                   "net.frag_latency_us")
    shown = [k for k in interesting if k in snap["histograms"]]
    if shown:
        print("\nlatency histograms (us):")
        for key in shown:
            h = snap["histograms"][key]
            print(f"  {key:28s} n={h['count']:<5d} p50={h['p50']:.2f} "
                  f"p95={h['p95']:.2f} p99={h['p99']:.2f} max={h['max']:.2f}")

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

    write_perfetto(rec, args.perfetto, prof)
    try:
        validate_trace_file(args.perfetto)
    except ValueError as exc:
        print(f"\nperfetto: {args.perfetto} FAILED schema validation: {exc}")
        return 1
    print(f"\nperfetto: {args.perfetto} (load at https://ui.perfetto.dev)")
    if prof is None:
        return 0
    if args.flame:
        prof.write_collapsed(args.flame)
        print(f"flame: {args.flame} (collapsed stacks; feed to flamegraph.pl)")
    coverage = prof.coverage() or 0.0
    if coverage < COVERAGE_FLOOR:
        print(f"profile: coverage {coverage:.1%} below the "
              f"{COVERAGE_FLOOR:.0%} floor: the attribution is not trustworthy")
        return 1
    return 0


def cmd_fingerprints(args) -> int:
    from .bench.fingerprints import (
        GOLDEN_PATH,
        collect_fingerprints,
        compare_corpus,
        write_corpus,
    )

    path = args.path or GOLDEN_PATH
    if not args.write and not os.path.isfile(path):
        print(f"fingerprints: no such file: {path}")
        return 2
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
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"unrlint: no such file or directory: {', '.join(missing)}")
        return 2
    config = LintConfig(select=select)
    findings = lint_paths(args.paths, config=config)
    if findings:
        from .analysis import format_findings

        print(format_findings(findings))
        return 1
    print(f"unrlint: {', '.join(args.paths)} clean "
          f"({len(RULES) if select is None else len(select)} rules)")
    return 0


def cmd_verify(args) -> int:
    from .analysis import verify_corpus
    from .analysis.mutants import run_all_mutants
    from .bench.fingerprints import load_corpus

    ok = True

    if args.corpus in ("golden", "all"):
        golden = load_corpus()
        reports = verify_corpus(platforms=args.platform)
        clean = sum(1 for r in reports if r.ok)
        print(f"verify: golden corpus  {clean}/{len(reports)} scenarios clean")
        for report in reports:
            if report.findings:
                ok = False
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

    print("verify: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


_COMMANDS = {
    "paper": cmd_paper,
    "latency": cmd_latency,
    "powerllel": cmd_powerllel,
    "faults": cmd_faults,
    "chaos": cmd_chaos,
    "trace": cmd_trace,
    "fingerprints": cmd_fingerprints,
    "lint": cmd_lint,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    from .netsim.faults import FaultScheduleError

    args = build_parser().parse_args(argv)
    if args.command == "powerllel":
        _check_powerllel(args)
    try:
        return _COMMANDS[args.command](args)
    except FaultScheduleError as exc:  # raised when the schedule is attached
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
