"""Figure 5 drivers: multi-NIC aggregation ping-pong with computation.

Setup (paper §VI-B): two nodes with two NICs each, two processes per
node; each process runs ping-pongs with a peer on the other node and
*computes* between receiving one message and sending the next.

* **exclusive** — each process uses one NIC (``max_stripe_rails=1``,
  rails assigned per local rank): the baseline.
* **shared** — every message is striped over both NICs via MMAS
  (``max_stripe_rails=2``): transfers finish in roughly half the time,
  letting some messages be received and computed *in advance* —
  up to the paper's theoretical 1/3 throughput gain (Fig. 5a) — and
  absorbing computational load imbalance (Fig. 5b).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import Unr
from ..platforms import get_platform, make_job
from ..runtime import run_job

__all__ = ["pingpong_with_calc", "aggregation_sweep", "imbalance_sweep"]


def pingpong_with_calc(
    platform: str,
    size: int,
    *,
    shared: bool,
    iters: int = 16,
    calc_seconds: Optional[float] = None,
    calc_sigma_frac: float = 0.0,
    window: int = 1,
    seed: int = 1234,
) -> float:
    """Aggregate throughput (bytes/s) of 2 process pairs on 2 nodes.

    ``calc_seconds`` defaults to the one-NIC transfer time of ``size``
    (the paper's "calculation time equals message transfer latency").
    ``calc_sigma_frac`` > 0 draws each computation from
    ``N(calc, calc_sigma_frac * calc)`` (Fig. 5b's N(T, 0.3T)).
    ``window`` is the number of ping-pongs each pair keeps in flight
    (the paper's Fig. 5b setup uses two, saturating CPU and NIC).
    """
    plat = get_platform(platform)
    job = make_job(platform, 2, ranks_per_node=2, seed=seed)
    unr = Unr(
        job,
        plat.channel,
        stripe_threshold=0 if shared else 1 << 62,
        max_stripe_rails=2 if shared else 1,
    )
    nic = plat.nic
    one_nic_t = nic.msg_overhead + size / nic.bandwidth + nic.latency
    calc = calc_seconds if calc_seconds is not None else one_nic_t
    done_at = {}

    def program(ctx):
        rng = np.random.default_rng(seed + ctx.rank)
        ep = unr.endpoint(ctx.rank)
        # Pairs: (0,2) and (1,3) — co-located ranks 0,1 on node 0.
        peer = (ctx.rank + 2) % 4
        sender = ctx.rank < 2
        sigs, blks, rmts = [], [], []
        buf = np.zeros(size * window, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        for slot in range(window):
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, slot * size, size, signal=sig)
            rmt = yield from ep.exchange_blk(peer, blk, tag=("pp", slot))
            sigs.append(sig)
            blks.append(blk)
            rmts.append(rmt)

        def draw_calc():
            if calc_sigma_frac <= 0:
                return calc
            return max(float(rng.normal(calc, calc_sigma_frac * calc)), 0.0)

        if sender:
            # Prime the pipeline: one message in flight per slot.
            for slot in range(window):
                ep.put(blks[slot], rmts[slot], local_signal=None)
            for it in range(iters):
                slot = it % window
                yield from ep.sig_wait(sigs[slot])  # reply for this slot
                ep.sig_reset(sigs[slot])
                yield ctx.env.timeout(draw_calc())
                if it + window < iters + window:  # keep pipeline full
                    ep.put(blks[slot], rmts[slot], local_signal=None)
        else:
            for it in range(iters + window):
                slot = it % window
                yield from ep.sig_wait(sigs[slot])
                ep.sig_reset(sigs[slot])
                yield ctx.env.timeout(draw_calc())
                ep.put(blks[slot], rmts[slot], local_signal=None)
        done_at[ctx.rank] = ctx.env.now

    run_job(job, program)
    total_bytes = 2 * 2 * iters * size  # 2 pairs, 2 directions
    return total_bytes / max(done_at.values())


def aggregation_sweep(
    platform: str = "th-xy",
    sizes: Sequence[int] = (4096, 32768, 262144, 1048576, 4194304),
    iters: int = 12,
) -> Dict[str, List[float]]:
    """Figure 5(a3): throughput improvement of shared NICs vs size."""
    return _gain_sweep(platform, sizes, iters=iters)


def imbalance_sweep(
    platform: str = "th-xy",
    sizes: Sequence[int] = (4096, 32768, 262144, 1048576, 4194304),
    iters: int = 12,
    sigma_frac: float = 0.3,
) -> Dict[str, List[float]]:
    """Figure 5(b2): gain with calc ~ N(T, 0.3 T) load imbalance.

    Uses a deep-enough in-flight window to saturate the pipeline (the
    paper's Fig. 5b1 condition): with a
    deterministic calc time equal to the one-NIC transfer time, CPUs
    and NICs are saturated and sharing cannot help; the gain measured
    here comes purely from absorbing the computation-time variance."""
    return _gain_sweep(platform, sizes, iters=iters, calc_sigma_frac=sigma_frac, window=4)


def _gain_sweep(platform: str, sizes: Sequence[int], **kwargs) -> Dict[str, List[float]]:
    """Shared-over-exclusive throughput gain of ``pingpong_with_calc`` per size."""
    rows: Dict[str, List[float]] = {"sizes": list(sizes), "improvement": []}
    for size in sizes:
        solo = pingpong_with_calc(platform, size, shared=False, **kwargs)
        both = pingpong_with_calc(platform, size, shared=True, **kwargs)
        rows["improvement"].append(both / solo - 1.0)
    return rows
