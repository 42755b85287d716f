"""Tests for Table II capability descriptors and level classification."""

import pytest

from repro.core.levels import policy_for_channel
from repro.interconnect import TABLE_II, Capability, RmaChannel, get_capability, support_level
from repro.netsim import Cluster, ClusterSpec, NicSpec, NodeSpec
from repro.runtime import Job
from repro.sim import Environment


# Paper Table II final column.
EXPECTED_LEVELS = {
    "glex": 3,
    "verbs": 2,
    "utofu": 1,
    "ugni": 2,
    "pami": 2,
    "portals": 3,
}


@pytest.mark.parametrize("name,level", sorted(EXPECTED_LEVELS.items()))
def test_table2_levels_match_paper(name, level):
    assert support_level(get_capability(name)) == level


def test_glex_reaches_level4_with_hw_offload():
    assert support_level(get_capability("glex"), hw_atomic_offload=True) == 4


def test_verbs_cannot_reach_level4_even_with_offload():
    # Level 4 requires 128 custom bits (paper Table I).
    assert support_level(get_capability("verbs"), hw_atomic_offload=True) == 2


def test_pami_shared_bits_halve_effective_width():
    pami = get_capability("pami")
    assert pami.put_remote == 64
    assert pami.effective_put_remote == 32


def test_portals_hash_gives_local_context():
    portals = get_capability("portals")
    assert portals.put_local == 0
    assert portals.effective_put_local == 64
    assert portals.display("put_local") == "Hash"


def test_pami_display_marks_shared():
    assert get_capability("pami").display("put_remote") == "64(Shared)"


def test_verbs_get_remote_is_zero():
    assert get_capability("verbs").effective_get_remote == 0


def test_unknown_interface_raises():
    with pytest.raises(KeyError, match="unknown interface"):
        get_capability("quantum")


def test_level0_for_zero_bits():
    cap = Capability("X", "x", "x", 0, 0, 0, 0)
    assert support_level(cap) == 0


#: Table I at and around each threshold: custom bits -> (level, level
#: with hardware atomic add).  Only 128 bits or more with the add reach 4.
TABLE_I_LEVELS = {0: (0, 0), 1: (1, 1), 8: (1, 1), 16: (1, 1), 31: (1, 1), 32: (2, 2),
                  63: (2, 2), 64: (3, 3), 127: (3, 3), 128: (3, 4), 129: (3, 4)}


@pytest.mark.parametrize("bits,offload,level,split", [
    pytest.param(bits, offload, levels[offload], None,
                 id=f"{bits}-{levels[offload]}" + ("-offload" if offload else ""))
    for bits, levels in TABLE_I_LEVELS.items() for offload in (False, True)
] + [pytest.param(32, False, 2, 16, id="32-2-split16")])
def test_level_thresholds(bits, offload, level, split):
    cap = Capability("X", "x", "x", bits, bits, bits, bits)
    job = Job(Cluster(Environment(), ClusterSpec(
        "t", 2, NodeSpec(cores=2),
        NicSpec(bandwidth_gbps=100, latency_us=1.0, atomic_offload=offload))))
    assert support_level(cap, offload) == level
    assert policy_for_channel(RmaChannel(job, cap), mode2_split=split).level == level


def test_table2_paper_widths_verbatim():
    v = TABLE_II["verbs"]
    assert (v.put_local, v.put_remote, v.get_local, v.get_remote) == (64, 32, 64, 0)
    u = TABLE_II["utofu"]
    assert (u.put_local, u.put_remote, u.get_local, u.get_remote) == (64, 8, 64, 8)
    g = TABLE_II["glex"]
    assert (g.put_local, g.put_remote, g.get_local, g.get_remote) == (128,) * 4
    a = TABLE_II["ugni"]
    assert (a.put_local, a.put_remote, a.get_local, a.get_remote) == (32,) * 4
