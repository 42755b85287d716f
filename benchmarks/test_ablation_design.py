"""Ablation studies for UNR's design choices (DESIGN.md §3).

Not a paper figure — these isolate the contribution of each mechanism:

* multi-rail MMAS striping (vs single-rail) on dual-rail TH-XY;
* slab pipelining depth in the PowerLLEL transposes;
* Level-4 hardware offload vs polling (application level);
* Level-0 ordered-message scheme overhead vs custom bits.
"""

from repro.bench import format_table, powerllel_point
from repro.core import Unr
from repro.platforms import make_job
from repro.powerllel import PowerLLELConfig, run_powerllel


def test_ablation_striping(emit):
    """Multi-NIC striping halves large-message latency on TH-XY."""

    def run():
        import numpy as np
        from repro.runtime import run_job

        out = {}
        for rails in (1, 2):
            job = make_job("th-xy", 2)
            unr = Unr(job, "glex", stripe_threshold=64 * 1024, max_stripe_rails=rails)
            t = {}

            def program(ctx, unr=unr, t=t):
                ep = unr.endpoint(ctx.rank)
                peer = 1 - ctx.rank
                buf = np.zeros(4 << 20, dtype=np.uint8)
                mr = ep.mem_reg(buf)
                sig = ep.sig_init(1)
                blk = ep.blk_init(mr, 0, 4 << 20, signal=sig)
                rmt = yield from ep.exchange_blk(peer, blk)
                t0 = ctx.env.now
                if ctx.rank == 0:
                    ep.put(blk, rmt, local_signal=None)
                else:
                    yield from ep.sig_wait(sig)
                    t["x"] = ctx.env.now - t0

            run_job(job, program)
            out[rails] = t["x"]
        return out

    out = run()
    emit(
        "Ablation: MMAS striping (4 MiB PUT on TH-XY)",
        f"1 rail: {out[1]*1e6:.1f} us   2 rails: {out[2]*1e6:.1f} us   "
        f"speedup {out[1]/out[2]:.2f}x",
    )
    assert 1.6 < out[1] / out[2] < 2.2  # ~2x from two rails


def test_ablation_pipeline_depth(emit):
    """Slab pipelining: deeper pipelines hide more transpose time."""

    def run():
        base = dict(nodes=12, py=4, pz=3, nx=384, ny=384, nz=288, steps=2)
        return {
            s: powerllel_point("hpc-roce", backend="unr", pipeline_slabs=s, **base)["time"]
            for s in (1, 4, 8)
        }

    times = run()
    emit(
        "Ablation: transpose pipeline depth (HPC-RoCE PowerLLEL)",
        format_table(["slabs", "time (s)"], [[s, t] for s, t in times.items()]),
    )
    assert times[4] < times[1]  # pipelining helps


def test_ablation_level4_offload_app(emit):
    """Level-4 NIC atomic add removes the polling thread: the freed CPU
    shows up as application speedup (the co-design's payoff)."""

    def run():
        cfg = PowerLLELConfig(
            nx=576, ny=576, nz=432, py=6, pz=4, steps=2, mode="model",
            lengths=(1.0, 1.0, 8.0), pipeline_slabs=4,
        )
        out = {}
        for offload in (False, True):
            job = make_job("th-xy", 24, offload=offload)
            unr = Unr(job, "glex")
            out[offload] = run_powerllel(job, cfg, backend="unr", unr=unr)["time"]
        return out

    out = run()
    emit(
        "Ablation: Level-4 hardware offload (TH-XY PowerLLEL)",
        f"polled: {out[False]*1e3:.2f} ms   hw atomic add: {out[True]*1e3:.2f} ms   "
        f"gain {out[False]/out[True] - 1:+.1%}",
    )
    assert out[True] <= out[False]  # never worse without the polling thread


def test_ablation_level0_overhead(emit):
    """The Level-0 ordered-message scheme pays extra latency per PUT
    versus hardware custom bits (Table I: 'correctness only')."""

    def run():
        from repro.interconnect import Capability, RmaChannel
        from repro.netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
        from repro.runtime import Job
        from repro.sim import Environment
        import numpy as np
        from repro.runtime import run_job

        out = {}
        for bits in (0, 64):
            cap = Capability("X", "x", "-", bits, bits, bits, bits)
            env = Environment()
            # Jitter off: Level-0's ordered data path would otherwise
            # dodge adaptive-routing jitter and mask the extra message.
            spec = ClusterSpec(
                "t", 2, NodeSpec(cores=4),
                NicSpec(bandwidth_gbps=100, latency_us=1.0),
                FabricSpec(routing_jitter=0.0), seed=4,
            )
            job = Job(Cluster(env, spec))
            unr = Unr(job, RmaChannel(job, cap))
            t = {}
            burst = 64

            def program(ctx, unr=unr, t=t):
                ep = unr.endpoint(ctx.rank)
                peer = 1 - ctx.rank
                buf = np.zeros(4096 * burst, dtype=np.uint8)
                mr = ep.mem_reg(buf)
                sig = ep.sig_init(burst)
                blks = [
                    ep.blk_init(mr, i * 4096, 4096, signal=sig) for i in range(burst)
                ]
                rmts = yield from ep.exchange_blk(peer, blks)
                t0 = ctx.env.now
                if ctx.rank == 0:
                    for i in range(burst):
                        ep.put(blks[i], rmts[i], local_signal=None)
                    yield ctx.env.timeout(0)
                else:
                    yield from ep.sig_wait(sig)
                    t["x"] = ctx.env.now - t0

            run_job(job, program)
            out[bits] = t["x"]
        return out

    out = run()
    emit(
        "Ablation: Level-0 ordered-message notification vs custom bits "
        "(64 x 4 KiB burst)",
        f"level 0: {out[0]*1e6:.2f} us   level 3: {out[64]*1e6:.2f} us",
    )
    # Level 0 doubles the message-issue load (one extra ordered control
    # message per PUT): the burst drains measurably slower.
    assert out[0] > 1.2 * out[64]
