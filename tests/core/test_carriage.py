"""Table I's carriage rule: how each side's notification of a PUT or GET
travels, checked field by field on every prepared ``StripePlan``.

The reference below is written per support level, the way Table I
states it; the engine decides it per policy flag.  Every synthetic
width of Table I is run natively and over the ``mpi`` fallback channel,
which notifies both sides in software at every width.
"""

import numpy as np
import pytest

from repro.bench.paper import TABLE1_LEVELS, synthetic_channel
from repro.core import Unr
from repro.core.levels import encode_custom
from repro.core.signal import submessage_addends

RSID, LSID = 3, 5
SIZE = 1 << 18  # above the stripe threshold: levels that aggregate stripe


def table1(policy, software, side, node, sid, addend):
    """``(custom bits, action add, done add)`` of one side, per Table I."""
    spec = (node, sid, addend)
    if software or policy.level == 4:  # MPI progress, or the NIC's atomic add
        return None, spec, None
    if policy.level == 0:  # no custom bits: remote gets an ordered tail
        return (None, None, spec) if side == "local" else (None, None, None)
    return encode_custom(sid, addend, policy), None, None


@pytest.mark.parametrize("channel", ["native", "mpi"])
@pytest.mark.parametrize("kind", ["put", "get"])
@pytest.mark.parametrize("bits,offload,level", TABLE1_LEVELS)
def test_stripe_plans_carry_notifications_per_table_one(bits, offload, level, kind, channel):
    job, native = synthetic_channel(bits, offload)
    software = channel == "mpi"
    unr = Unr(job, "mpi" if software else native)
    assert software or unr.level == level
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    local = ep0.blk_init(ep0.mem_reg(np.zeros(SIZE, dtype=np.uint8)), 0, SIZE)
    remote = ep1.blk_init(ep1.mem_reg(np.zeros(SIZE, dtype=np.uint8)), 0, SIZE)
    prepare = unr.engine.prepare_put if kind == "put" else unr.engine.prepare_get
    op = prepare(0, local, remote, RSID, LSID)

    rpol = getattr(unr, f"{kind}_remote_policy")
    lpol = getattr(unr, f"{kind}_local_policy")
    ctrl = not software and rpol.level == 0
    assert op.ctrl_remote == ctrl
    if kind == "put":
        addends = submessage_addends(len(op.stripes), unr.n_bits)
        if not software and rpol.multi_channel and lpol.multi_channel:
            assert len(op.stripes) == 2  # one per rail
    else:
        addends = [-1]
    assert len(op.stripes) == len(addends)
    for sp, addend in zip(op.stripes, addends):
        if ctrl:
            assert (sp.remote_custom, sp.remote_add, sp.remote_sig) == (None, None, None)
        else:
            custom, action, done = table1(rpol, software, "remote", 1, RSID, addend)
            assert done is None
            assert (sp.remote_custom, sp.remote_add) == (custom, action)
            assert sp.remote_sig == (1, RSID, addend)
        assert (sp.local_custom, sp.local_action_add, sp.local_done_add) == table1(
            lpol, software, "local", 0, LSID, addend
        )
        assert sp.local_sig == (0, LSID, addend)
    # A GET's local done-add and Level-0 tail wait for the read to land.
    local_done = not software and lpol.level == 0
    assert op.tails == (kind == "get" and (ctrl or local_done))
