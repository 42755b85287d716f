#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload.

The measurement a performance PR owes (``choosing-metrics`` guide, §8):
run the parent commit and the change as pairs on the same seed,
alternating which side goes first, and claim a gain only when the change
wins at least nine tenths of the pairs *and* the medians differ by more
than the spread of the parent's own runs (the distance between its
quartiles).

    python tools/perf_pairs.py --parent /root/scratch/parent \\
        [--change .] [--workload fig7_thxy288] [--pairs 10] [--seed 300]
    make perf-pairs PARENT=/root/scratch/parent

Each run is the benchmark's own pipeline entry point, taken from the
change tree's ``BENCHMARK.json`` and executed inside the tree it
measures (``python3 perfbench/run.py --workload W --seed N --seconds 12
--trace 0``); pair *i* uses seed ``SEED + i`` on both sides.  Nothing is
imported from either tree.  Export both trees side by side (two
``git archive`` / ``git clone`` copies under one directory): a tree
measured where it is edited reads a few percent off in ``setup_s``.

``--dry-run`` prints the commands in the order they would run.

``--counters`` answers a different question — did the change move the
*schedule*? — with one ``--trace 1`` run per side at ``--seed``: the
counters in :data:`EXACT_COUNTERS` are counts the program makes of its
own simulated work, so they repeat exactly between runs and a change
that claims "same events, fewer host cycles" must leave every one of
them equal.  Exits non-zero on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

SIDES = ("parent", "change")
#: per-layer counters that are functions of the simulated schedule alone
#: (no host time in them): equal on both sides or the schedule moved
EXACT_COUNTERS = (
    "sim.events", "netsim.posts", "netsim.bytes", "netsim.cq_high_water",
    "netsim.pool_hit_ratio", "core.puts", "core.fragments", "core.poll_sweeps",
    "core.events_per_op", "core.dispatch_per_sweep", "powerllel.sim_time_ms",
    "trace.digest_match",
)
#: one planned run: (pair index, side, working directory, argv)
Step = Tuple[int, str, str, List[str]]
#: per side, per pair: metric name -> value (None: the run gave no result)
Results = Dict[str, List[Optional[Dict[str, float]]]]


def load_benchmark(tree: str) -> Dict[str, Any]:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def plan(parent: str, change: str, spec: Dict[str, Any], workload: str,
         pairs: int, seed: int, trace: int = 0) -> List[Step]:
    """The runs, in order: even pairs parent first, odd pairs change first."""
    trees = {"parent": os.path.abspath(parent), "change": os.path.abspath(change)}
    steps: List[Step] = []
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            argv = list(spec["command"]) + [
                "--workload", workload, "--seed", str(seed + i),
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
            ]
            steps.append((i, side, trees[side], argv))
    return steps


def run_step(cwd: str, argv: Sequence[str]) -> Tuple[Optional[Dict[str, float]], int]:
    """Run one side once; returns (metric values, failed ops)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, 0
    result = json.loads(lines[-1])
    values = {name: float(m["value"]) for name, m in result["metrics"].items()}
    return values, int(result.get("failed", 0))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarise(results: Results, metrics: Sequence[Dict[str, Any]]) -> List[str]:
    """One line per end-to-end metric: each side's median [q1, q3], the
    pairs the change won (ties count for neither), and the verdict of
    the two-part rule."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [
            (p[name], c[name])
            for p, c in zip(results["parent"], results["change"])
            if p is not None and c is not None
        ]
        if not both:
            lines.append(f"{name}: no complete pair")
            continue
        (p1, pm, p3), (c1, cm, c3) = (
            quartiles([pair[k] for pair in both]) for k in (0, 1)
        )
        won = sum((c < p) if lower else (c > p) for p, c in both)
        lost = sum((c > p) if lower else (c < p) for p, c in both)
        gain = (pm - cm) if lower else (cm - pm)
        claim = won >= 0.9 * len(both) and gain > (p3 - p1)
        lines.append(
            f"{name} [{metric['unit']}, {metric['better']} is better]: "
            f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}] -> "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"({(cm - pm) / pm:+.1%} of parent)  "
            f"won {won}/{len(both)}, lost {lost}; median gap {gain:.4g} vs "
            f"parent IQR {p3 - p1:.4g} -> {'GAIN' if claim else 'no claim'}"
        )
    return lines


def diff_counters(parent: Optional[Dict[str, float]],
                  change: Optional[Dict[str, float]]) -> Tuple[List[str], int]:
    """One line per exact counter (values by ``repr``, so a last-bit
    difference shows) and how many differ; a counter either side did
    not report counts as a difference."""
    lines, n_diff = [], 0
    for name in EXACT_COUNTERS:
        p = None if parent is None else parent.get(name)
        c = None if change is None else change.get(name)
        same = p is not None and p == c
        n_diff += not same
        lines.append(f"{name:26s} {p!r:>22} {c!r:>22}  {'same' if same else 'DIFFERENT'}")
    return lines, n_diff


def main(argv: Optional[Sequence[str]] = None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="tree of the parent commit")
    ap.add_argument("--change", default=here, help="tree of the change (default: this one)")
    ap.add_argument("--workload", default="fig7_thxy288")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=300, help="seed of pair 0")
    ap.add_argument("--counters", action="store_true",
                    help="one traced run per side at --seed; diff the exact counters")
    ap.add_argument("--dry-run", action="store_true", help="print the commands, run nothing")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = load_benchmark(args.change)
    steps = plan(args.parent, args.change, spec, args.workload,
                 1 if args.counters else args.pairs, args.seed,
                 trace=int(args.counters))
    if args.dry_run:
        for i, side, cwd, cmd in steps:
            print(f"pair {i} {side}: cd {cwd} && {' '.join(cmd)}")
        return 0
    if args.counters:
        values = {side: run_step(cwd, cmd)[0] for _i, side, cwd, cmd in steps}
        lines, n_diff = diff_counters(values["parent"], values["change"])
        print(f"{args.workload} seed {args.seed}: exact counters, parent | change")
        print("\n".join(lines))
        print(f"{n_diff} of {len(lines)} differ")
        return 1 if n_diff else 0

    results: Results = {side: [None] * args.pairs for side in SIDES}
    failed = {side: 0 for side in SIDES}
    names = [m["name"] for m in spec["end_to_end"]]
    for i, side, cwd, cmd in steps:
        values, n_failed = run_step(cwd, cmd)
        results[side][i] = values
        failed[side] += n_failed
        shown = "no result" if values is None else "  ".join(
            f"{n}={values[n]:.4g}" for n in names
        )
        print(f"pair {i} seed {args.seed + i} {side:6s} {shown}  failed={n_failed}",
              flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}")
    for line in summarise(results, spec["end_to_end"]):
        print(line)
    broken = sum(v is None for side in SIDES for v in results[side])
    for side in SIDES:
        if failed[side]:
            print(f"FAILED OPERATIONS on {side}: {failed[side]}")
    if broken:
        print(f"{broken} run(s) gave no result")
    return 1 if broken or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
