"""The PUT shape memo (``TransferEngine._stripe_shape``) and the
whole-block bounds check that ``prepare_put`` rests on it.

The memo must be indistinguishable from planning afresh: same stripes,
same MMAS addends, for every input ``plan_stripes`` /
``submessage_addends`` / ``_max_stripe_k`` read — including the
striping knobs, which live on the ``Unr`` and may be changed after
construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Unr, UnrUsageError
from repro.core.levels import LevelPolicy
from repro.core.memory import Blk
from repro.core.signal import submessage_addends
from repro.core.transport import plan_stripes
from repro.netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from repro.runtime import Job
from repro.sim import Environment


def make_unr(nics=2, **kw):
    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=4, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0),
        FabricSpec(routing_jitter=0.3), seed=11,
    )
    return Unr(Job(Cluster(env, spec), ranks_per_node=1), "glex", **kw)


def fresh_shape(unr, size, n_rails, multi_ok, policy):
    """What ``prepare_put`` computed per PUT before the memo."""
    max_k = unr.engine._max_stripe_k(policy)
    if unr.max_stripe_rails:
        max_k = min(max_k, unr.max_stripe_rails)
    stripes = plan_stripes(
        size, n_rails,
        threshold=unr.stripe_threshold,
        multi_channel=multi_ok,
        max_fragments=max_k,
    )
    addends = submessage_addends(len(stripes), unr.n_bits)
    return tuple(
        (s.index, s.rail, s.offset, s.size, a) for s, a in zip(stripes, addends)
    )


policies = st.builds(
    lambda a_bits: LevelPolicy(
        level=3 if a_bits else 1, p_bits=32, a_bits=a_bits,
        multi_channel=bool(a_bits), uses_polling=True, hw_offload=False,
    ),
    st.sampled_from([0, 16, 24, 32, 40, 64]),
)
thresholds = st.sampled_from([1024, 8192, 65536])


@pytest.fixture(scope="module")
def live_unr():
    """One ``Unr`` for every example: the examples overwrite its knobs,
    which is the situation the memo key has to survive."""
    return make_unr()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 1 << 19), st.integers(1, 8), st.booleans(), policies,
    thresholds, st.one_of(st.none(), st.integers(1, 8)),
    st.sampled_from([4, 8, 16, 30, 32]), thresholds,
)
def test_memo_equals_fresh_planning(
    live_unr, size, n_rails, multi_ok, policy,
    threshold, max_rails, n_bits, threshold2,
):
    unr, engine = live_unr, live_unr.engine
    unr.stripe_threshold = threshold
    unr.max_stripe_rails, unr.n_bits = max_rails, n_bits
    args = (size, n_rails, multi_ok, policy)

    first = engine._stripe_shape(*args)
    assert first == fresh_shape(unr, *args)
    assert engine._stripe_shape(*args) is first  # served from the memo
    assert sum(n for _i, _r, _o, n, _a in first) == size

    unr.stripe_threshold = threshold2
    assert engine._stripe_shape(*args) == fresh_shape(unr, *args)
    unr.stripe_threshold = threshold
    assert engine._stripe_shape(*args) is first


@pytest.mark.parametrize("change", [
    {"stripe_threshold": 1 << 20},
    {"max_stripe_rails": 1},
    {"n_bits": 60},
    {"multi_ok": False},
    {"a_bits": 0},
])
def test_every_planning_input_is_in_the_key(change):
    """A 256 KiB PUT over two rails, planned, then asked again with one
    input changed to a value that plans differently: answering from the
    first entry would be a wrong shape."""
    unr = make_unr()
    pol = unr.put_remote_policy

    def ask(multi_ok=True, a_bits=pol.a_bits, **knobs):
        for name, value in knobs.items():
            setattr(unr, name, value)  # on the live Unr, after construction
        policy = LevelPolicy(
            pol.level, pol.p_bits, a_bits, pol.multi_channel,
            pol.uses_polling, pol.hw_offload,
        )
        args = (256 * 1024, 2, multi_ok, policy)
        shape = unr.engine._stripe_shape(*args)
        assert shape == fresh_shape(unr, *args)
        return shape

    before = ask()
    assert len(before) == 2
    assert ask(**change) != before


def test_memo_is_bounded():
    from repro.core.engine import _SHAPE_MEMO_LIMIT

    unr = make_unr()
    policy = unr.put_remote_policy
    for size in range(1, _SHAPE_MEMO_LIMIT + 10):
        unr.engine._stripe_shape(size, 2, True, policy)
    assert len(unr.engine._shapes) <= _SHAPE_MEMO_LIMIT


@pytest.mark.parametrize("size,k", [(4096, 1), (256 * 1024, 2)])
def test_overrunning_destination_raises_at_prepare_time(size, k):
    unr = make_unr(nics=2)
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    src_mr = ep0.mem_reg(np.zeros(size, dtype=np.uint8))
    dst_mr = ep1.mem_reg(np.zeros(size, dtype=np.uint8))
    src = ep0.blk_init(src_mr, 0, size)
    ok = unr.engine.prepare_put(0, src, ep1.blk_init(dst_mr, 0, size), None, None)
    assert len(ok.stripes) == k
    # Only the block's last byte is outside the region: with k > 1 that
    # is the last fragment's, and the whole-block check must see it.
    overrun = Blk(rank=1, mr_handle=dst_mr.handle, offset=1, size=size)
    with pytest.raises(UnrUsageError, match="outside region"):
        unr.engine.prepare_put(0, src, overrun, None, None)
