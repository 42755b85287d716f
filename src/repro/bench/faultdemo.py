"""Fault-injection demo: hostile fabric, correct results, identical replays.

``python -m repro faults`` runs a producer→consumer stream on a
two-node multi-rail cluster *twice* under the same fault schedule and
checks the two guarantees the fault subsystem makes:

1. **correctness under faults** — with the reliability layer armed,
   every message arrives intact despite drops, reordering and a rail
   failing mid-run;
2. **bit-identical replay** — both runs produce the same
   :func:`~repro.netsim.trace.transfer_fingerprint`, so any failing
   schedule can be reproduced from its seed alone.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core import Unr
from ..netsim import FaultInjector, FaultSpec
from ..netsim.trace import transfer_fingerprint, transfer_summary
from ..obs import Recorder
from ..platforms import get_platform, make_job
from ..runtime import run_job

__all__ = ["DEFAULT_FAULTS", "fault_demo"]

DEFAULT_FAULTS = "drop=0.3,reorder=0.2,rail_fail@t=5.0"


def _producer_consumer(unr, job, *, size: int, iters: int, ranks=None, world=None) -> Dict:
    """Rank 0 streams ``iters`` buffers to rank 1; rank 1 verifies each.

    ``ranks`` restricts which physical ranks run the program (``None``
    runs every rank).  A :class:`~repro.replication.TeamWorld` as
    ``world`` runs it in every replica world instead; ``received`` and
    ``correct`` are then per-world lists."""
    n_worlds = 1 if world is None else world.team_size
    received = [0] * n_worlds
    correct = [0] * n_worlds

    def pattern(it: int) -> np.ndarray:
        return ((np.arange(size) * 31 + it * 7) % 251).astype(np.uint8)

    def program(ctx):
        ep = ctx.services["unr"](ctx.rank)
        if ctx.rank == 0:
            buf = np.zeros(size, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            send_sig = ep.sig_init(1)
            send_blk = ep.blk_init(mr, 0, size, signal=send_sig)
            rmt_blk = yield from ep.recv_ctl(1, tag="addr")
            for it in range(iters):
                buf[:] = pattern(it)
                ep.put(send_blk, rmt_blk)
                yield from ep.sig_wait(send_sig)
                ep.sig_reset(send_sig)
                # One outstanding buffer: wait for the consumer's credit
                # before overwriting the source.
                yield from ep.recv_ctl(1, tag="credit")
        else:
            w = ep.rank // ctx.n_ranks  # the replica world
            buf = np.zeros(size, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            recv_sig = ep.sig_init(1)
            recv_blk = ep.blk_init(mr, 0, size, signal=recv_sig)
            yield from ep.send_ctl(0, recv_blk, tag="addr")
            for it in range(iters):
                yield from ep.sig_wait(recv_sig)
                received[w] += 1
                if np.array_equal(buf, pattern(it)):
                    correct[w] += 1
                ep.sig_reset(recv_sig)
                yield from ep.send_ctl(0, "go", tag="credit")
        return ctx.env.now

    if world is not None:
        times = world.run(program)
        return {"received": received, "correct": correct, "time": max(times)}
    times = run_job(job, program, ranks=ranks, services={"unr": unr.endpoint})
    return {"received": received[0], "correct": correct[0], "time": max(times)}


def _one_run(
    faults: FaultSpec,
    *,
    platform: str,
    n_nodes: int,
    size: int,
    iters: int,
    seed: int,
    observe: bool = False,
    health: bool = False,
) -> Dict:
    plat = get_platform(platform)
    job = make_job(platform, n_nodes, seed=seed)
    injector = FaultInjector.attach(job.cluster, faults)
    recorder = Recorder.attach(job.cluster)  # outermost: sees post-fault times
    unr = Unr(job, plat.channel, reliability=True, observe=observe, health=health)
    result = _producer_consumer(unr, job, size=size, iters=iters)
    result.update(
        fingerprint=transfer_fingerprint(recorder.transfers),
        trace=transfer_summary(recorder.transfers),
        faults=dict(injector.stats),
        retransmits=unr.stats["retransmits"],
        duplicates_suppressed=unr.stats["duplicates_suppressed"],
        degraded_ops=unr.stats["degraded_ops"],
        repromotions=unr.stats["repromotions"],
    )
    return result


def fault_demo(
    faults: str = DEFAULT_FAULTS,
    *,
    platform: str = "th-xy",
    n_nodes: int = 2,
    size: int = 256 * 1024,
    iters: int = 8,
    seed: int = 2024,
    fault_seed: Optional[int] = None,
    observe: bool = False,
    health: bool = False,
) -> Dict:
    """Run the demo twice with one schedule; returns both runs plus the
    ``identical`` (replay) and ``correct`` (delivery) verdicts.

    ``health=True`` arms the fault-domain resilience layer, required
    for schedules that dark every rail of a node (``endpoint_down`` /
    ``node_crash``) — without it such schedules defeat retransmission.
    """
    spec = FaultSpec.parse(faults, seed=fault_seed)
    runs = [
        _one_run(spec, platform=platform, n_nodes=n_nodes,
                 size=size, iters=iters, seed=seed, observe=observe,
                 health=health)
        for _ in range(2)
    ]
    return {
        "spec": spec,
        "runs": runs,
        "identical": runs[0]["fingerprint"] == runs[1]["fingerprint"],
        "correct": all(r["correct"] == iters for r in runs),
        "iters": iters,
    }
