"""Table I: UNR support levels — behaviour of each level's implementation.

Runs the same notified ping-pong through synthetic NICs whose custom
bits span the whole range (0, 8, 16, 32, 64, 128 bits, and 128 bits +
hardware atomic add), verifying each level's data path, control
messages and polling-thread requirement.  The table itself (encoding,
signal budget, multi-channel support) is the ledger's
(``repro paper --only table1``).
"""

import numpy as np
import pytest

from repro.bench.paper import TABLE1_LEVELS, synthetic_channel
from repro.core import Unr
from repro.runtime import run_job


def notified_pingpong(job, unr, size=65536, iters=4):
    """Code-2 style exchange; returns the received bytes for checking."""
    out = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        peer = 1 - ctx.rank
        buf = (
            np.arange(size, dtype=np.uint8)
            if ctx.rank == 0
            else np.zeros(size, dtype=np.uint8)
        )
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        rmt = yield from ep.exchange_blk(peer, blk)
        for _ in range(iters):
            if ctx.rank == 0:
                ep.put(blk, rmt, local_signal=None)
                ack = yield from ep.recv_ctl(peer, tag="ack")
                assert ack
            else:
                yield from ep.sig_wait(sig)
                out["data"] = buf.copy()
                ep.sig_reset(sig)
                yield from ep.send_ctl(peer, True, tag="ack")

    run_job(job, program)
    return out["data"]


@pytest.mark.parametrize("bits,offload,level", TABLE1_LEVELS)
def test_level_pingpong_correct(bits, offload, level):
    """Every support level must deliver correct data + notification."""
    job, channel = synthetic_channel(bits, offload)
    unr = Unr(job, channel)
    assert unr.level == level
    data = notified_pingpong(job, unr)
    np.testing.assert_array_equal(data, np.arange(65536, dtype=np.uint8))
    if level == 0:
        # Level 0 uses the extra order-preserving (p, a) message.
        assert unr.stats["ctrl_msgs"] >= 4
    else:
        assert unr.stats.get("ctrl_msgs", 0) == 0
    if level == 4:
        assert not unr.engines  # no polling thread required
    else:
        assert unr.engines


def test_level2_mode2_enables_striping():
    """Table I level 2 mode 2: user-split x bits for p enables limited
    multi-channel aggregation."""
    job, channel = synthetic_channel(32, False)

    def run():
        unr = Unr(job, channel, mode2_split=16, stripe_threshold=1024)
        data = notified_pingpong(job, unr, size=1 << 18, iters=2)
        return unr, data

    unr, data = run()
    np.testing.assert_array_equal(data, np.arange(1 << 18, dtype=np.uint8))
    assert unr.stats["fragments"] > unr.stats["puts"]
