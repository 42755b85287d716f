"""Tests for level policies and custom-bit encodings (`repro.core.levels`),
and Table I's levels end to end: the paper's Code 2 ping-pong at every
width."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.paper import TABLE1_LEVELS, synthetic_channel
from repro.core import Unr
from repro.core.errors import UnrUsageError
from repro.core.levels import (
    LevelPolicy,
    decode_custom,
    encode_custom,
    max_signals,
    policy_for_channel,
)
from repro.interconnect import TABLE_II, MpiFallbackChannel, RmaChannel
from repro.netsim import Cluster, ClusterSpec, NicSpec, NodeSpec
from repro.runtime import Job
from repro.sim import Environment

from .test_api import code2_pingpong


def make_job(offload=False):
    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=2), NicSpec(bandwidth_gbps=100, latency_us=1, atomic_offload=offload)
    )
    return Job(Cluster(env, spec))


# ------------------------------------------------------------- policies


def test_glex_level3_policy():
    pol = policy_for_channel(RmaChannel(make_job(), TABLE_II["glex"]), "put_remote")
    assert pol.level == 3
    assert pol.p_bits == 64 and pol.a_bits == 64
    assert pol.multi_channel and pol.uses_polling and not pol.hw_offload


def test_glex_level4_policy_with_offload():
    pol = policy_for_channel(RmaChannel(make_job(offload=True), TABLE_II["glex"]), "put_remote")
    assert pol.level == 4
    assert not pol.uses_polling and pol.hw_offload


def test_verbs_mode1_policy():
    pol = policy_for_channel(RmaChannel(make_job(), TABLE_II["verbs"]), "put_remote")
    assert pol.level == 2
    assert pol.p_bits == 32 and pol.a_bits == 0
    assert not pol.multi_channel
    assert pol.implied_minus_one


def test_verbs_mode2_policy():
    pol = policy_for_channel(RmaChannel(make_job(), TABLE_II["verbs"]), "put_remote", mode2_split=20)
    assert pol.level == 2
    assert pol.p_bits == 20 and pol.a_bits == 12
    assert pol.multi_channel
    assert max_signals(pol) == 1 << 20


def test_mode2_split_validation():
    job = make_job()
    with pytest.raises(UnrUsageError):
        policy_for_channel(RmaChannel(job, TABLE_II["verbs"]), "put_remote", mode2_split=32)
    with pytest.raises(UnrUsageError):
        policy_for_channel(RmaChannel(job, TABLE_II["verbs"]), "put_remote", mode2_split=0)


def test_utofu_level1_policy():
    pol = policy_for_channel(RmaChannel(make_job(), TABLE_II["utofu"]), "put_remote")
    assert pol.level == 1
    assert pol.p_bits == 8 and pol.a_bits == 0
    assert max_signals(pol) == 256


def test_verbs_local_side_richer_than_remote():
    job = make_job()
    ch = RmaChannel(job, TABLE_II["verbs"])
    local = policy_for_channel(ch, "put_local")
    remote = policy_for_channel(ch, "put_remote")
    assert local.a_bits > 0  # 64 local bits → 32/32 split
    assert remote.a_bits == 0


def test_verbs_get_remote_is_level0():
    pol = policy_for_channel(RmaChannel(make_job(), TABLE_II["verbs"]), "get_remote")
    assert pol.level == 0


def test_portals_local_hash_policy():
    pol = policy_for_channel(RmaChannel(make_job(), TABLE_II["portals"]), "put_local")
    assert pol.level == 3  # 64-bit hash context


def test_fallback_policy_is_level0_software():
    pol = policy_for_channel(MpiFallbackChannel(make_job()), "put_remote")
    assert pol.level == 0
    assert not pol.uses_polling


def test_max_n_bits_respects_addend_budget():
    pol = LevelPolicy(level=3, p_bits=16, a_bits=16, multi_channel=True,
                      uses_polling=True, hw_offload=False)
    assert pol.max_n_bits(32) == 14  # a_bits - 2
    pol0 = LevelPolicy(level=2, p_bits=32, a_bits=0, multi_channel=False,
                       uses_polling=True, hw_offload=False)
    assert pol0.max_n_bits(32) == 32


# ------------------------------------------------------------ encoding


def glex_policy():
    return LevelPolicy(level=3, p_bits=64, a_bits=64, multi_channel=True,
                       uses_polling=True, hw_offload=False)


def test_encode_decode_roundtrip_simple():
    pol = glex_policy()
    custom = encode_custom(123, -1, pol)
    assert decode_custom(custom, pol) == (123, -1)


def test_encode_decode_negative_addends():
    pol = glex_policy()
    for addend in (-1, -(1 << 33), -1 + (3 << 33), 5):
        sid, back = decode_custom(encode_custom(7, addend, pol), pol)
        assert (sid, back) == (7, addend)


def test_encode_implied_minus_one():
    pol = LevelPolicy(level=2, p_bits=32, a_bits=0, multi_channel=False,
                      uses_polling=True, hw_offload=False)
    assert encode_custom(99, -1, pol) == 99
    assert decode_custom(99, pol) == (99, -1)
    with pytest.raises(UnrUsageError, match="implies a = -1"):
        encode_custom(99, -2, pol)


def test_encode_sid_overflow_rejected():
    pol = LevelPolicy(level=1, p_bits=8, a_bits=0, multi_channel=False,
                      uses_polling=True, hw_offload=False)
    encode_custom(255, -1, pol)
    with pytest.raises(UnrUsageError, match="does not fit"):
        encode_custom(256, -1, pol)


def test_encode_addend_overflow_rejected():
    pol = LevelPolicy(level=2, p_bits=20, a_bits=12, multi_channel=True,
                      uses_polling=True, hw_offload=False)
    encode_custom(1, -(1 << 11), pol)
    with pytest.raises(UnrUsageError, match="addend"):
        encode_custom(1, 1 << 11, pol)


def test_encode_level0_returns_none():
    pol = LevelPolicy(level=0, p_bits=64, a_bits=64, multi_channel=False,
                      uses_polling=True, hw_offload=False)
    assert encode_custom(1, -1, pol) is None


@settings(max_examples=300, deadline=None)
@given(
    p_bits=st.integers(min_value=4, max_value=64),
    a_bits=st.integers(min_value=2, max_value=64),
    data=st.data(),
)
def test_encode_decode_roundtrip_property(p_bits, a_bits, data):
    pol = LevelPolicy(level=3, p_bits=p_bits, a_bits=a_bits, multi_channel=True,
                      uses_polling=True, hw_offload=False)
    sid = data.draw(st.integers(min_value=0, max_value=(1 << p_bits) - 1))
    half = 1 << (a_bits - 1)
    addend = data.draw(st.integers(min_value=-half, max_value=half - 1))
    custom = encode_custom(sid, addend, pol)
    assert custom >= 0
    assert custom.bit_length() <= p_bits + a_bits
    assert decode_custom(custom, pol) == (sid, addend)


# ------------------------------------------------------ Table I end to end


@pytest.mark.parametrize("bits,offload,level", TABLE1_LEVELS)
def test_every_level_delivers_data_and_notification(bits, offload, level):
    """Level 0 pays its order-preserving (p, a) control message per PUT
    and no higher level sends one; Level 4 needs no polling thread."""
    job, channel = synthetic_channel(bits, offload)
    unr = Unr(job, channel)
    assert unr.level == level
    results, _ = code2_pingpong(unr, job, size=65536, iters=4)
    np.testing.assert_array_equal(results["data"], np.arange(65536, dtype=np.uint8))
    if level == 0:
        assert unr.stats["ctrl_msgs"] >= 4
    else:
        assert unr.stats.get("ctrl_msgs", 0) == 0
    assert bool(unr.engines) == (level != 4)


def test_level2_mode2_enables_striping():
    """Table I level 2 mode 2: user-split x bits for p enables limited
    multi-channel aggregation."""
    job, channel = synthetic_channel(32, False)
    unr = Unr(job, channel, mode2_split=16, stripe_threshold=1024)
    results, _ = code2_pingpong(unr, job, size=1 << 18, iters=2)
    np.testing.assert_array_equal(results["data"], np.arange(1 << 18, dtype=np.uint8))
    assert unr.stats["fragments"] > unr.stats["puts"]
