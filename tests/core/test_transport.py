"""Tests for the striping planner (`repro.core.transport`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transport import MIN_FRAGMENT, Stripe, plan_stripes


def test_small_message_single_stripe():
    stripes = plan_stripes(1024, 4, threshold=65536)
    assert len(stripes) == 1
    assert stripes[0] == Stripe(index=0, rail=0, offset=0, size=1024)


def test_large_message_striped_over_rails():
    stripes = plan_stripes(1 << 20, 4, threshold=65536)
    assert len(stripes) == 4
    assert [s.rail for s in stripes] == [0, 1, 2, 3]


def test_multi_channel_false_forces_single():
    stripes = plan_stripes(1 << 20, 4, threshold=0, multi_channel=False)
    assert len(stripes) == 1


def test_max_fragments_cap():
    stripes = plan_stripes(1 << 20, 8, threshold=0, max_fragments=3)
    assert len(stripes) == 3


def test_min_fragment_limits_fragmentation():
    # 20 KiB over 4 rails with 8 KiB min fragment → at most 2 fragments.
    stripes = plan_stripes(20 * 1024, 4, threshold=0, min_fragment=8192)
    assert len(stripes) == 2


def test_zero_size_message():
    stripes = plan_stripes(0, 4)
    assert len(stripes) == 1
    assert stripes[0].size == 0


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        plan_stripes(-1, 2)


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(0, 1 << 26),
    n_rails=st.integers(1, 8),
    threshold=st.sampled_from([0, 4096, 65536, 1 << 20]),
    max_fragments=st.integers(0, 16),
)
def test_stripes_partition_exactly(size, n_rails, threshold, max_fragments):
    """Stripes always tile the message: contiguous, complete, balanced."""
    stripes = plan_stripes(
        size, n_rails, threshold=threshold, max_fragments=max_fragments
    )
    assert len(stripes) >= 1
    assert stripes[0].offset == 0
    total = 0
    for i, s in enumerate(stripes):
        assert s.index == i
        assert s.offset == total
        assert 0 <= s.rail < n_rails
        total += s.size
    assert total == size
    sizes = [s.size for s in stripes]
    assert max(sizes) - min(sizes) <= 1
    if max_fragments:
        assert len(stripes) <= max(max_fragments, 1)
    if size >= max(threshold, 1) and n_rails > 1 and not max_fragments:
        # Large messages use multiple fragments unless min-fragment bound.
        assert len(stripes) == min(n_rails, max(size // MIN_FRAGMENT, 1))


# The same planner with the minimum fragment size varied too.
plans = st.builds(
    lambda size, n_rails, threshold, budget, min_fragment: (
        size, n_rails, budget,
        plan_stripes(
            size, n_rails, threshold=threshold, multi_channel=True,
            max_fragments=budget, min_fragment=min_fragment,
        ),
    ),
    st.integers(0, 1 << 18),
    st.integers(1, 8),
    st.sampled_from([1024, 8192, 65536]),
    st.integers(0, 64),
    st.sampled_from([512, 4096, 8192]),
)


@settings(max_examples=200, deadline=None)
@given(plans)
def test_plan_tiles_bytes_exactly(plan):
    size, n_rails, _budget, stripes = plan
    assert len(stripes) >= 1
    offset = 0
    for i, sp in enumerate(stripes):
        assert sp.index == i
        assert sp.offset == offset
        assert sp.size >= 0
        assert 0 <= sp.rail < n_rails
        offset += sp.size
    assert offset == size


@settings(max_examples=200, deadline=None)
@given(plans)
def test_plan_respects_fragment_budget(plan):
    _size, _n_rails, budget, stripes = plan
    if budget:
        assert len(stripes) <= budget


@settings(max_examples=200, deadline=None)
@given(plans)
def test_per_rail_fragments_stay_offset_ordered(plan):
    _size, _n_rails, _budget, stripes = plan
    per_rail = {}
    for sp in stripes:
        per_rail.setdefault(sp.rail, []).append(sp.offset)
    for offsets in per_rail.values():
        assert offsets == sorted(offsets)
