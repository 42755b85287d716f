"""Golden wire-fingerprint corpus: the datapath's bit-exactness lock.

Every PR to the raw datapath — one that adds an optimization (pooled
records, deferred NIC callbacks, batched CQ dispatch) or deletes one —
must be *wire equivalent*: same fragments, same rails, same
post/deliver times, same order.  This module pins that down as a corpus of
:func:`~repro.netsim.trace.transfer_fingerprint` digests over four
canonical schedules on each Table III platform:

* ``latency``      — the Figure 4 notified PUT ping-pong;
* ``stream``       — a credit-flowed striped PUT stream (the producer/
  consumer pattern; exercises multi-rail striping where available);
* ``powerllel``    — a PowerLLEL-style many-to-one halo push
  (multiple ranks per node, intra- and inter-node traffic);
* ``fault_stress`` — the stream under the PR 1 fault-stress schedule
  (drop/dup/reorder, plus a rail failure on multi-rail platforms)
  with the reliability layer armed.

``repro fingerprints`` recomputes the corpus and diffs it against the
committed golden file (``tests/core/fixtures/golden_fingerprints.json``);
``repro fingerprints --write`` regenerates the golden file after an
*intentional* behaviour change.  The tier-1 test
``tests/core/test_fingerprints.py`` runs the same comparison.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from ..core import Unr
from ..netsim import FaultInjector, FaultSpec
from ..netsim.trace import transfer_fingerprint
from ..obs import Recorder
from ..platforms import get_platform, make_job
from ..runtime import run_job

__all__ = [
    "GOLDEN_SCHEMA",
    "PLATFORMS",
    "SCHEDULES",
    "GOLDEN_PATH",
    "fault_schedule",
    "run_schedule",
    "collect_fingerprints",
    "write_corpus",
    "load_corpus",
    "compare_corpus",
]

GOLDEN_SCHEMA = "repro.bench.fingerprints/1"

#: the four Table III platforms the corpus covers
PLATFORMS: Tuple[str, ...] = ("th-xy", "th-2a", "hpc-ib", "hpc-roce")

#: schedule name -> runner (registered below)
SCHEDULES: Tuple[str, ...] = ("latency", "stream", "powerllel", "fault_stress")

#: default location of the committed golden corpus (repo-relative)
GOLDEN_PATH = "tests/core/fixtures/golden_fingerprints.json"

#: the PR 1 fault-stress ingredients (tests/obs/test_determinism.py);
#: the rail failure is only injected on multi-rail platforms — on a
#: single-rail node it would kill the only RMA lane outright.
FAULTS_BASE = "drop=0.2,dup=0.1,reorder=0.3"
RAIL_FAIL = "rail_fail@t=40:node=1:rail=0"
FAULT_SEED = 5

PING_BYTES = 4096
PING_ITERS = 3
STREAM_BYTES = 65536  # == stripe threshold: striped on multi-rail nodes
STREAM_ITERS = 3
HALO_BYTES = 8192
HALO_ROUNDS = 2


def fault_schedule(n_rails: int) -> str:
    """The fault-stress schedule for a platform with ``n_rails`` rails."""
    if n_rails > 1:
        return f"{FAULTS_BASE},{RAIL_FAIL}"
    return FAULTS_BASE


def _pattern(size: int, salt: int) -> np.ndarray:
    return ((np.arange(size) * 13 + salt) % 251).astype(np.uint8)


def _pingpong_program(unr: Any) -> Any:
    """Figure 4 shape: two ranks bounce a notified PUT back and forth."""

    def program(ctx: Any) -> Generator[Any, Any, None]:
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(2 * PING_BYTES, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        # Separate send/recv windows: the signal counts only *arrivals*
        # (a signal on the send BLK would also fire on local completion).
        send_blk = ep.blk_init(mr, 0, PING_BYTES)
        recv_blk = ep.blk_init(mr, PING_BYTES, PING_BYTES, signal=sig)
        peer = 1 - ctx.rank
        yield from ep.send_ctl(peer, recv_blk, tag="addr")
        rmt = yield from ep.recv_ctl(peer, tag="addr")
        for _ in range(PING_ITERS):
            if ctx.rank == 0:
                ep.put(send_blk, rmt)
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
            else:
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                ep.put(send_blk, rmt)

    return program


def _stream_program(unr: Any) -> Any:
    """Credit-flowed PUT stream: rank 0 streams striped buffers to 1."""

    def program(ctx: Any) -> Generator[Any, Any, None]:
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(STREAM_BYTES, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, STREAM_BYTES, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            for it in range(STREAM_ITERS):
                buf[:] = _pattern(STREAM_BYTES, it)
                ep.put(blk, rmt)
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.recv_ctl(1, tag="credit")
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            for _ in range(STREAM_ITERS):
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="credit")

    return program


def _powerllel_program(unr: Any, n_ranks: int) -> Any:
    """Many-to-one halo push: every worker PUTs its slab into rank 0."""
    workers = n_ranks - 1

    def program(ctx: Any) -> Generator[Any, Any, None]:
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            acc = np.zeros(workers * HALO_BYTES, dtype=np.uint8)
            mr = ep.mem_reg(acc)
            sigs = []
            for w in range(workers):
                sig = ep.sig_init(1)
                sigs.append(sig)
                blk = ep.blk_init(mr, w * HALO_BYTES, HALO_BYTES, signal=sig)
                yield from ep.send_ctl(w + 1, blk, tag="slab")
            for _ in range(HALO_ROUNDS):
                for w in range(workers):
                    yield from ep.sig_wait(sigs[w])
                    ep.sig_reset(sigs[w])
                for w in range(workers):
                    yield from ep.send_ctl(w + 1, "go", tag="credit")
        else:
            buf = np.zeros(HALO_BYTES, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            blk = ep.blk_init(mr, 0, HALO_BYTES)
            rmt = yield from ep.recv_ctl(0, tag="slab")
            for rnd in range(HALO_ROUNDS):
                buf[:] = _pattern(HALO_BYTES, ctx.rank * 17 + rnd)
                ep.put(blk, rmt)
                yield from ep.recv_ctl(0, tag="credit")

    return program


def _setup_schedule(
    platform: str, schedule: str, seed: int, *, observe_core: bool
) -> Tuple[Any, Recorder, Any]:
    """Shared corpus-run setup; returns ``(job, recorder, program)``.

    ``observe_core`` arms op/protocol emission in the UNR core
    (``Unr(..., observe=recorder)``) on top of the always-attached wire
    recorder — the unrverify entry point.  Arming is passive: the
    fingerprint
    must be identical either way (checked by ``repro verify``).
    """
    plat = get_platform(platform)
    if schedule == "powerllel":
        job = make_job(platform, 2, ranks_per_node=2, seed=seed)
    else:
        job = make_job(platform, 2, seed=seed)
    faults: Optional[str] = None
    if schedule == "fault_stress":
        faults = fault_schedule(job.cluster.spec.node.nics)
        FaultInjector.attach(job.cluster, FaultSpec.parse(faults, seed=FAULT_SEED))
    recorder = Recorder.attach(job.cluster)
    unr = Unr(
        job, plat.channel,
        reliability=faults is not None,
        observe=recorder if observe_core else None,
    )
    if schedule == "latency":
        program = _pingpong_program(unr)
    elif schedule in ("stream", "fault_stress"):
        program = _stream_program(unr)
    elif schedule == "powerllel":
        program = _powerllel_program(unr, job.n_ranks)
    else:
        raise ValueError(f"unknown corpus schedule {schedule!r}")
    return job, recorder, program


def run_schedule(
    platform: str, schedule: str, *, seed: int = 0xC0FFEE,
    profiler: Optional[Any] = None,
) -> str:
    """Run one corpus schedule on ``platform``; returns its fingerprint.

    A ``profiler`` (:class:`repro.obs.HostProfiler`) arms host-time
    profiling for the run; the fingerprint must be bit-identical either
    way (that is the UNR012 passivity contract, and what
    ``tests/obs/test_profile.py`` checks against the golden corpus).
    """
    job, recorder, program = _setup_schedule(platform, schedule, seed, observe_core=False)
    if profiler is not None:
        profiler.attach(job.cluster, profiler)
    run_job(job, program)
    return transfer_fingerprint(recorder.transfers)


def run_schedule_observed(
    platform: str, schedule: str, *, seed: int = 0xC0FFEE
) -> Tuple[str, Recorder]:
    """Run one corpus schedule with unrverify op/protocol streams armed.

    Returns ``(fingerprint, recorder)`` — the fingerprint must equal the
    disarmed :func:`run_schedule` result (and hence the golden corpus);
    the recorder's ``ops``/``protocol`` streams feed
    :mod:`repro.analysis.verify`.
    """
    job, recorder, program = _setup_schedule(platform, schedule, seed, observe_core=True)
    run_job(job, program)
    return transfer_fingerprint(recorder.transfers), recorder


def collect_fingerprints(
    platforms: Iterable[str] = PLATFORMS,
    schedules: Iterable[str] = SCHEDULES,
) -> Dict[str, str]:
    """Compute the ``"platform/schedule" -> fingerprint`` corpus."""
    out: Dict[str, str] = {}
    for plat in platforms:
        for sched in schedules:
            out[f"{plat}/{sched}"] = run_schedule(plat, sched)
    return out


def write_corpus(path: str = GOLDEN_PATH,
                 entries: Optional[Dict[str, str]] = None) -> str:
    """Regenerate the golden corpus file (``repro fingerprints --write``)."""
    record = {
        "schema": GOLDEN_SCHEMA,
        "entries": entries if entries is not None else collect_fingerprints(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return path


def load_corpus(path: str = GOLDEN_PATH) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    if record.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"{path}: schema must be {GOLDEN_SCHEMA!r}, got {record.get('schema')!r}"
        )
    entries = record.get("entries")
    if not isinstance(entries, dict):
        raise ValueError(f"{path}: entries must be an object")
    return entries


def compare_corpus(
    path: str = GOLDEN_PATH,
    entries: Optional[Dict[str, str]] = None,
) -> List[str]:
    """Diff current fingerprints against the golden file.

    Returns human-readable mismatch lines (empty = corpus clean).
    Missing and extra keys are mismatches too — a silently shrinking
    corpus must not read as green.
    """
    golden = load_corpus(path)
    current = entries if entries is not None else collect_fingerprints()
    problems: List[str] = []
    for key in sorted(golden):
        if key not in current:
            problems.append(f"{key}: missing from current run")
        elif current[key] != golden[key]:
            problems.append(
                f"{key}: fingerprint drifted "
                f"(golden {golden[key][:12]}.. != current {current[key][:12]}..)"
            )
    for key in sorted(set(current) - set(golden)):
        problems.append(f"{key}: not in golden corpus (regenerate with --write)")
    return problems
