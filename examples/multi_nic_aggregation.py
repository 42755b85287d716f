#!/usr/bin/env python3
"""Multi-NIC aggregation (MMAS striping) on a dual-rail TH-XY node pair.

One logical message is striped over both NICs; the sub-message addends
``a = -1 + ((K-1) << (N+1))`` / ``a = (-1) << (N+1)`` make the single
receive signal fire exactly when every fragment of every message has
landed — no matter the arrival order under adaptive routing.

Prints a transfer-time comparison (1 rail vs 2 rails); the Figure 5
throughput sweeps are the claims ledger's: ``python -m repro paper
--only fig5``.

Run:  python examples/multi_nic_aggregation.py
"""

import numpy as np

from repro.bench import format_size
from repro.core import Unr
from repro.platforms import make_job
from repro.runtime import run_job

SIZE = 4 << 20  # 4 MiB


def one_transfer(max_rails: int) -> float:
    job = make_job("th-xy", n_nodes=2)
    unr = Unr(job, "glex", stripe_threshold=64 * 1024, max_stripe_rails=max_rails)
    t = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        peer = 1 - ctx.rank
        buf = (np.arange(SIZE) % 251).astype(np.uint8) if ctx.rank == 0 else np.zeros(SIZE, np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, SIZE, signal=sig)
        rmt = yield from ep.exchange_blk(peer, blk)
        t0 = ctx.env.now
        if ctx.rank == 0:
            ep.put(blk, rmt, local_signal=None)
            yield ctx.env.timeout(0)
        else:
            yield from ep.sig_wait(sig)
            t["transfer"] = ctx.env.now - t0
            assert (buf == (np.arange(SIZE) % 251).astype(np.uint8)).all()

    run_job(job, program)
    return t["transfer"], unr.stats["fragments"]


def main() -> None:
    t1, frags1 = one_transfer(max_rails=1)
    t2, frags2 = one_transfer(max_rails=2)
    print(f"{format_size(SIZE)} notified PUT on TH-XY (2x200 Gbps rails):")
    print(f"  1 rail : {t1 * 1e6:8.1f} us  ({frags1} fragment)")
    print(f"  2 rails: {t2 * 1e6:8.1f} us  ({frags2} fragments, MMAS-aggregated)")
    print(f"  speedup: {t1 / t2:.2f}x\n")
    print("Figure 5, ping-pong with computation on 2 procs x 2 NICs")
    print("(theoretical bound from the paper: +33%): python -m repro paper --only fig5")


if __name__ == "__main__":
    main()
