"""Trace demos: short, fully-observed runs for ``repro trace``.

Each demo arms a :class:`~repro.obs.Recorder` on a small job, runs a
representative workload, and returns the recorder alongside the
workload's own result, ready for the exporters in :mod:`repro.obs`:

* ``stream``    — a producer→consumer stream driven by a recorded
  :class:`~repro.core.plan.RmaPlan` (plan build/replay spans, signal
  waits, credits on the control channel), optionally under a fault
  schedule with the reliability layer armed;
* ``latency``   — the Figure 4 UNR ping-pong;
* ``powerllel`` — a small PowerLLEL grid on the UNR backend
  (collective spans from the transpose phases).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

import numpy as np

from ..core import Unr
from ..obs import Recorder
from ..platforms import get_platform, make_job
from ..runtime import run_job

__all__ = ["TRACE_DEMOS", "trace_demo"]

TRACE_DEMOS = ("stream", "latency", "powerllel")


def trace_demo(
    demo: str = "stream",
    *,
    platform: str = "th-xy",
    size: int = 65536,
    iters: int = 6,
    seed: int = 2024,
    faults: Optional[str] = None,
    fault_seed: Optional[int] = None,
    nodes: int = 4,
    steps: int = 1,
    profiler: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run one observed demo; returns ``{"recorder", "result"}`` for the
    CLI / exporters.

    ``profiler`` (a :class:`repro.obs.HostProfiler`) arms host-time
    attribution on the demo's cluster — wire-passive, so traces are
    identical with it on or off."""
    if demo not in TRACE_DEMOS:
        raise ValueError(f"unknown trace demo {demo!r} (choose from {TRACE_DEMOS})")
    if faults and demo != "stream":
        raise ValueError(f"faults apply to the stream demo only, not {demo!r}")
    if demo == "stream":
        return _stream_demo(
            platform=platform, size=size, iters=iters, seed=seed,
            faults=faults, fault_seed=fault_seed, profiler=profiler,
        )
    if demo == "latency":
        return _latency_demo(platform=platform, size=size, iters=iters,
                             profiler=profiler)
    return _powerllel_demo(platform=platform, nodes=nodes, steps=steps,
                           seed=seed, profiler=profiler)


def _stream_demo(
    *,
    platform: str,
    size: int,
    iters: int,
    seed: int,
    faults: Optional[str],
    fault_seed: Optional[int],
    profiler: Optional[Any] = None,
) -> Dict[str, Any]:
    """Producer→consumer stream over a recorded RMA plan, 2 nodes."""
    plat = get_platform(platform)
    job = make_job(platform, 2, seed=seed)
    if faults:
        from ..netsim import FaultInjector, FaultSpec

        spec = FaultSpec.parse(faults, seed=fault_seed)
        FaultInjector.attach(job.cluster, spec)
    recorder = Recorder.attach(job.cluster)
    if profiler is not None:
        profiler.attach(job.cluster, profiler)
    unr = Unr(job, plat.channel, observe=recorder, reliability=bool(faults))
    received = {"count": 0, "correct": 0}

    def pattern(it: int) -> np.ndarray:
        return ((np.arange(size) * 31 + it * 7) % 251).astype(np.uint8)

    def program(ctx: Any) -> Generator[Any, Any, float]:
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        if ctx.rank == 0:
            rmt_blk = yield from ep.recv_ctl(1, tag="addr")
            plan = ep.plan().record_put(blk, rmt_blk)
            for it in range(iters):
                buf[:] = pattern(it)
                plan.start()
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.recv_ctl(1, tag="credit")
            plan.free()
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            for it in range(iters):
                yield from ep.sig_wait(sig)
                received["count"] += 1
                if np.array_equal(buf, pattern(it)):
                    received["correct"] += 1
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="credit")
        return ctx.env.now

    times = run_job(job, program)
    return {
        "recorder": recorder,
        "result": {
            "time": max(times),
            "received": received["count"],
            "correct": received["correct"],
            "iters": iters,
        },
    }


def _latency_demo(
    *, platform: str, size: int, iters: int,
    profiler: Optional[Any] = None,
) -> Dict[str, Any]:
    """The Figure 4 UNR ping-pong, observed."""
    from .latency import unr_pingpong

    out: Dict[str, Any] = {}
    half_rtt = unr_pingpong(platform, size, iters, out=out, profiler=profiler)
    return {
        "recorder": out["recorder"],
        "result": {"half_rtt_us": half_rtt * 1e6, "size": size, "iters": iters},
    }


def _powerllel_demo(
    *, platform: str, nodes: int, steps: int, seed: int,
    profiler: Optional[Any] = None,
) -> Dict[str, Any]:
    """A small PowerLLEL grid on the UNR backend, observed."""
    from .powerllel_bench import powerllel_point

    res = powerllel_point(
        platform,
        nodes=nodes, py=2, pz=2, nx=64, ny=64, nz=64,
        backend="unr", steps=steps, seed=seed, observe=True,
        profiler=profiler,
    )
    recorder = res.pop("recorder")
    return {"recorder": recorder, "result": res}
