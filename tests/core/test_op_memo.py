"""The descriptor memo of ``TransferEngine.prepare_put`` / ``prepare_get``.

A request that repeats — same BLK objects, posting rank and signal ids,
and for a PUT the same live striping knobs — gets back the
``TransferOp`` its first prepare built, so a hot loop posts instead of
re-planning.  Every other request must be prepared afresh, a request
that fails its checks must fail every time, and a plan must keep the
descriptors it prepared however many other requests pass the memo.
"""

import numpy as np
import pytest

from repro.core import Unr, UnrUsageError
from repro.core.engine import _OP_MEMO_LIMIT
from repro.netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from repro.runtime import Job
from repro.sim import Environment

SIZE = 256 * 1024  # striped over both rails at the default threshold


def make_unr():
    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=4, nics=2),
        NicSpec(bandwidth_gbps=100, latency_us=1.0),
        FabricSpec(routing_jitter=0.3), seed=11,
    )
    return Unr(Job(Cluster(env, spec), ranks_per_node=1), "glex")


@pytest.fixture
def pair():
    """``(unr, posted, local, remote)``: rank 0's block and rank 1's,
    each bound to a signal, and the list of descriptors ``post_op`` saw."""
    unr = make_unr()
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    local = ep0.blk_init(ep0.mem_reg(np.zeros(SIZE, np.uint8)), 0, SIZE, ep0.sig_init(1))
    remote = ep1.blk_init(ep1.mem_reg(np.zeros(SIZE, np.uint8)), 0, SIZE, ep1.sig_init(1))
    posted = []
    engine, post_op = unr.engine, unr.engine.post_op

    def spy(op):
        posted.append(op)
        post_op(op)

    engine.post_op = spy
    return unr, posted, local, remote


def geometry(op):
    return [(sp.rail, sp.offset, sp.size, sp.remote_custom, sp.local_custom)
            for sp in op.stripes]


@pytest.mark.parametrize("kind", ["put", "get"])
def test_a_repeated_request_gets_the_same_descriptor(pair, kind):
    unr, posted, local, remote = pair
    call = getattr(unr.endpoint(0), kind)
    call(local, remote)
    call(local, remote)
    first, second = posted
    assert first.kind == kind and second is first
    assert unr.stats[f"{kind}s"] == 2  # still counted per post


@pytest.mark.parametrize("kind", ["put", "get"])
@pytest.mark.parametrize("override, rsid, lsid", [
    ({"remote_sid": 7}, 7, 0),
    ({"local_signal": None}, 0, None),
])
def test_a_signal_override_is_prepared_afresh(pair, kind, override, rsid, lsid):
    unr, posted, local, remote = pair
    call = getattr(unr.endpoint(0), kind)
    call(local, remote)
    call(local, remote, **override)
    call(local, remote)
    first, other, again = posted
    assert (first.rsid, first.lsid) == (0, 0)
    assert other is not first and (other.rsid, other.lsid) == (rsid, lsid)
    assert again is first


@pytest.mark.parametrize("knob, value", [
    ("stripe_threshold", 1 << 20),
    ("max_stripe_rails", 1),
    ("n_bits", 16),
])
def test_each_striping_knob_is_in_the_put_key(pair, knob, value):
    """A knob changed on the live ``Unr`` after a PUT was prepared: the
    next PUT is planned with the new value, and putting the old value
    back serves the first descriptor again."""
    unr, posted, local, remote = pair
    ep = unr.endpoint(0)
    ep.put(local, remote)
    old = getattr(unr, knob)
    setattr(unr, knob, value)
    ep.put(local, remote)
    setattr(unr, knob, old)
    ep.put(local, remote)
    setattr(unr, knob, value)
    unr.engine._ops.clear()
    ep.put(local, remote)  # the reference: a fresh prepare under the new value
    first, changed, again, fresh = posted
    assert changed is not first and geometry(changed) != geometry(first)
    assert geometry(changed) == geometry(fresh)
    assert again is first


@pytest.mark.parametrize("kind", ["put", "get"])
def test_a_failing_prepare_is_never_stored(pair, kind):
    unr, posted, local, remote = pair
    call = getattr(unr.endpoint(0), kind)
    short = remote.sub(0, SIZE // 2)
    for _ in range(2):
        with pytest.raises(UnrUsageError, match="size mismatch"):
            call(local, short)
    assert posted == [] and unr.engine._ops == {}


def test_the_memo_never_exceeds_its_limit():
    unr = make_unr()
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    n = _OP_MEMO_LIMIT + 10
    src_mr = ep0.mem_reg(np.zeros(n, np.uint8))
    dst = ep1.blk_init(ep1.mem_reg(np.zeros(1, np.uint8)), 0, 1)
    engine = unr.engine
    for i in range(n):
        engine.prepare_put(0, ep0.blk_init(src_mr, i, 1), dst, None, None)
        assert 0 < len(engine._ops) <= _OP_MEMO_LIMIT


def test_a_plan_keeps_its_descriptors_past_a_full_memo(pair):
    """The memo starts over more than once between two starts of a
    plan; the second start still posts the plan's own descriptors."""
    unr, posted, local, remote = pair
    ep0 = unr.endpoint(0)
    plan = ep0.plan().record_put(local, remote).record_get(local, remote)
    plan.start()
    mine = list(posted)
    assert [op.kind for op in mine] == ["put", "get"]

    engine = unr.engine
    src_mr = ep0.mem_reg(np.zeros(2 * _OP_MEMO_LIMIT, np.uint8))
    for i in range(2 * _OP_MEMO_LIMIT):
        engine.prepare_put(0, ep0.blk_init(src_mr, i, 1), remote.sub(0, 1), None, None)
    assert not any(op in engine._ops.values() for op in mine)

    del posted[:]
    plan.start()
    assert len(posted) == 2 and all(a is b for a, b in zip(posted, mine))
