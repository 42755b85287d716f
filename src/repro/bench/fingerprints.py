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

A fifth entry per platform, ``mpi`` (:data:`MPI_SCHEDULE`), pins the
simulated MPI lane: eager and rendezvous point-to-point, an
``ANY_SOURCE`` receive, two collectives, one epoch of each MPI-RMA
synchronization scheme and a UNR PUT and GET over the MPI fallback
channel.  It is not in :data:`SCHEDULES`, which drives the UNR-only
observed corpus and unrverify.

Beside the 20 wire entries the corpus pins seven *witnesses*
(:data:`WITNESSES`): the sha256 of whole CLI runs — the fault demo's
stdout, the chaos record, the faulted trace's Perfetto file — and of
everything the observed corpus runs record.  Entries are only ever
added.

``repro fingerprints`` recomputes the corpus and diffs it against the
committed golden file (``tests/core/fixtures/golden_fingerprints.json``);
``repro fingerprints --write`` regenerates the golden file after an
*intentional* behaviour change.  The tier-1 test
``tests/core/test_fingerprints.py`` runs the same comparison.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import tempfile
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from ..core import Unr
from ..interconnect import MpiFallbackChannel
from ..mpi import MpiWorld, Win
from ..netsim import FaultSpec
from ..netsim.trace import transfer_fingerprint
from ..obs import Recorder
from ..platforms import get_platform, make_job
from ..runtime import run_job
from .report import REPO_ROOT
from .stream import run_stream

__all__ = [
    "GOLDEN_SCHEMA",
    "PLATFORMS",
    "SCHEDULES",
    "MPI_SCHEDULE",
    "WITNESSES",
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

#: the MPI lane's wire entry per platform, beside :data:`SCHEDULES`
MPI_SCHEDULE = "mpi"

#: default location of the committed golden corpus
GOLDEN_PATH = str(REPO_ROOT / "tests" / "core" / "fixtures" / "golden_fingerprints.json")

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
MPI_EAGER_BYTES = 1024
MPI_RNDV_BYTES = 256 * 1024  # above every platform's eager threshold


def fault_schedule(n_rails: int) -> str:
    """The fault-stress schedule for a platform with ``n_rails`` rails."""
    if n_rails > 1:
        return f"{FAULTS_BASE},{RAIL_FAIL}"
    return FAULTS_BASE


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
                buf[:] = (np.arange(HALO_BYTES) * 13 + ctx.rank * 17 + rnd) % 251
                ep.put(blk, rmt)
                yield from ep.recv_ctl(0, tag="credit")

    return program


def _mpi_ring_program(world: MpiWorld) -> Any:
    """Two-sided traffic on every rank: an eager and a rendezvous
    ``sendrecv`` ring, ``ANY_SOURCE`` receives at rank 0, ``alltoall``
    and ``allreduce``."""

    def program(ctx: Any) -> Generator[Any, Any, None]:
        comm = world.comm_world(ctx.rank)
        me, n = comm.rank, comm.size
        for nbytes in (MPI_EAGER_BYTES, MPI_RNDV_BYTES):
            data = np.full(nbytes, me, dtype=np.uint8)
            yield from comm.sendrecv((me + 1) % n, data, (me - 1) % n, tag=nbytes)
        if me == 0:
            for _ in range(n - 1):
                yield from comm.recv(None, tag="any")
        else:
            yield from comm.send(0, me, tag="any")
        yield from comm.alltoall([np.full(64, me * n + j, dtype=np.uint8) for j in range(n)])
        yield from comm.allreduce(me)

    return program


def _mpi_rma_program(world: MpiWorld) -> Any:
    """One fence, one PSCW and one lock epoch: rank 0 writes rank 1."""

    def program(ctx: Any) -> Generator[Any, Any, None]:
        comm = world.comm(ctx.rank, (0, 1))
        win = Win.create(comm, np.zeros(PING_BYTES, dtype=np.uint8))
        yield from comm.barrier()
        data = np.full(PING_BYTES, 7, dtype=np.uint8)
        origin = comm.rank == 0
        if origin:
            win.put(1, data)
        yield from win.fence()
        if origin:
            yield from win.start([1])
            win.put(1, data)
            yield from win.complete([1])
            yield from win.lock(1)
            win.put(1, data)
            yield from win.unlock(1)
        else:
            yield from win.post([0])
            yield from win.wait([0])

    return program


def _fallback_program(unr: Any) -> Any:
    """A UNR PUT (rendezvous-sized) and GET over the MPI fallback lane."""

    def program(ctx: Any) -> Generator[Any, Any, None]:
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(STREAM_BYTES + PING_BYTES, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        if ctx.rank == 1:
            buf[STREAM_BYTES:] = 5
            put_in = ep.blk_init(mr, 0, STREAM_BYTES, signal=sig)
            get_src = ep.blk_init(mr, STREAM_BYTES, PING_BYTES)
            yield from ep.send_ctl(0, (put_in, get_src), tag="addr")
        else:
            put_src = ep.blk_init(mr, 0, STREAM_BYTES)
            get_in = ep.blk_init(mr, STREAM_BYTES, PING_BYTES, signal=sig)
            put_in, get_src = yield from ep.recv_ctl(1, tag="addr")
            ep.put(put_src, put_in)
            ep.get(get_in, get_src)
        yield from ep.sig_wait(sig)

    return program


def _run_mpi(platform: str, seed: int) -> Tuple[str, Recorder]:
    """The ``mpi`` entry: four ranks on two nodes run the ring program,
    then ranks 0 and 1 the MPI-RMA epochs and the fallback PUT/GET."""
    plat = get_platform(platform)
    job = make_job(platform, 2, ranks_per_node=2, seed=seed)
    recorder = Recorder.attach(job.cluster)
    world = MpiWorld(job, plat.mpi)
    run_job(job, _mpi_ring_program(world))
    run_job(job, _mpi_rma_program(world), ranks=(0, 1))
    unr = Unr(job, MpiFallbackChannel(job, plat.fallback))
    run_job(job, _fallback_program(unr), ranks=(0, 1))
    return transfer_fingerprint(recorder.transfers), recorder


def _run_schedule(
    platform: str, schedule: str, seed: int, *, observe: bool,
    profiler: Optional[Any] = None,
) -> Tuple[str, Recorder]:
    """Run one corpus schedule; returns ``(fingerprint, recorder)``.
    ``stream`` / ``fault_stress`` are :func:`~repro.bench.stream.run_stream`."""
    if schedule in ("stream", "fault_stress"):
        faults = None
        if schedule == "fault_stress":
            rails = get_platform(platform).node.nics
            faults = FaultSpec.parse(fault_schedule(rails), seed=FAULT_SEED)
        result, _, recorder = run_stream(
            faults, platform=platform, size=STREAM_BYTES, iters=STREAM_ITERS,
            seed=seed, observe=observe, profiler=profiler,
        )
        return result["fingerprint"], recorder
    if schedule == MPI_SCHEDULE:
        return _run_mpi(platform, seed)
    if schedule not in ("latency", "powerllel"):
        raise ValueError(f"unknown corpus schedule {schedule!r}")
    job = make_job(platform, 2, ranks_per_node=2 if schedule == "powerllel" else 1, seed=seed)
    recorder = Recorder.attach(job.cluster)
    unr = Unr(job, get_platform(platform).channel, observe=observe)
    if profiler is not None:
        profiler.attach(job.cluster, profiler)
    if schedule == "latency":
        run_job(job, _pingpong_program(unr))
    else:
        run_job(job, _powerllel_program(unr, job.n_ranks))
    return transfer_fingerprint(recorder.transfers), recorder


def run_schedule(
    platform: str, schedule: str, *, seed: int = 0xC0FFEE,
    profiler: Optional[Any] = None,
) -> str:
    """Run one corpus schedule on ``platform``; returns its fingerprint.

    A ``profiler`` (:class:`repro.obs.HostProfiler`) arms host-time
    profiling for the run; the fingerprint must be bit-identical either
    way (that is the profiler's passivity contract, and what
    ``tests/obs/test_profile.py`` checks against the golden corpus).
    """
    return _run_schedule(platform, schedule, seed, observe=False, profiler=profiler)[0]


def run_schedule_observed(
    platform: str, schedule: str, *, seed: int = 0xC0FFEE
) -> Tuple[str, Recorder]:
    """Run one corpus schedule with the core's op/protocol streams armed
    (the unrverify entry point).  Returns ``(fingerprint, recorder)``;
    arming is passive, so the fingerprint must equal the golden one."""
    return _run_schedule(platform, schedule, seed, observe=True)


def observed_corpus_digest() -> str:
    """sha256 of everything the 16 :func:`run_schedule_observed` runs
    record: the op and protocol streams, the instant markers and the
    snapshot.  A change means observation wrote something different
    down."""
    digest = hashlib.sha256()
    for platform in PLATFORMS:
        for schedule in SCHEDULES:
            _, rec = run_schedule_observed(platform, schedule)
            doc = {
                "ops": [dataclasses.astuple(r) for r in rec.ops],
                "protocol": [dataclasses.astuple(e) for e in rec.protocol],
                "events": [(e.t, e.track, e.name, sorted(e.args.items()))
                           for e in rec.events],
                "snapshot": rec.snapshot(),
            }
            digest.update(json.dumps(doc, sort_keys=True).encode())
    return digest.hexdigest()


def cli_digest(argv: Tuple[str, ...], artifact: str) -> str:
    """sha256 of one in-process ``repro`` run, equal to that of a fresh
    process.  ``artifact`` names what is hashed: ``"stdout"``;
    ``"stdout+exit"``, stdout then an ``exit N`` line, as ``{ repro
    ARGV; echo "exit $?"; } | sha256sum``; or ``"file"``, the file the
    command writes to a temporary path appended to ``argv``."""
    from ..cli import main

    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(stdout):
            status = main(list(argv) + ([path] if artifact == "file" else []))
        if artifact == "file":
            with open(path, "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()
    text = stdout.getvalue()
    if artifact == "stdout+exit":
        text += f"exit {status}\n"
    return hashlib.sha256(text.encode()).hexdigest()


#: the witness entries beside the wire corpus: key -> digest function.
#: ``cli/<line>`` hashes the ``repro <line>`` run (see :func:`cli_digest`).
WITNESSES: Dict[str, Callable[[], str]] = {
    f"cli/{line}": functools.partial(cli_digest, tuple(line.split()), artifact)
    for line, artifact in (
        ("faults", "stdout"),
        ("faults --kill-node 1", "stdout"),
        ("faults --kill-node 1 --kill-duration 0", "stdout+exit"),
        ("chaos --team-size 2 --out", "file"),
        ("chaos --team-size 3 --out", "file"),
        ("trace stream --faults drop=0.3,reorder=0.2,rail_fail@t=5.0 --perfetto", "file"),
    )
}
WITNESSES["obs/observed-corpus"] = observed_corpus_digest


def collect_fingerprints(
    platforms: Iterable[str] = PLATFORMS,
    schedules: Iterable[str] = SCHEDULES + (MPI_SCHEDULE,),
    witnesses: Iterable[str] = tuple(WITNESSES),
) -> Dict[str, str]:
    """Compute the corpus: ``"platform/schedule" -> fingerprint`` for
    the wire entries, then the named witnesses."""
    out: Dict[str, str] = {}
    for plat in platforms:
        for sched in schedules:
            out[f"{plat}/{sched}"] = run_schedule(plat, sched)
    for key in witnesses:
        out[key] = WITNESSES[key]()
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
