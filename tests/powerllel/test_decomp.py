"""Tests for the pencil decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.powerllel import PencilDecomp, block_of, split_sizes, split_starts


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 10_000), p=st.integers(1, 64))
def test_split_sizes_partition(n, p):
    sizes = split_sizes(n, p)
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    starts = split_starts(n, p)
    assert starts[0] == 0
    for i in range(1, p):
        assert starts[i] == starts[i - 1] + sizes[i - 1]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 10_000), p=st.integers(1, 64))
def test_block_of_closed_form_matches_lists(n, p):
    blocks = [block_of(n, p, i) for i in range(p)]
    assert blocks == list(zip(split_starts(n, p), split_sizes(n, p)))
    assert all(type(v) is int for block in blocks for v in block)


def test_split_rejects_bad_args():
    with pytest.raises(ValueError):
        split_sizes(5, 0)
    with pytest.raises(ValueError):
        split_sizes(-1, 2)
    with pytest.raises(ValueError):
        block_of(5, 0, 0)
    with pytest.raises(IndexError):
        block_of(5, 2, 2)
    with pytest.raises(IndexError):
        block_of(5, 2, -1)


def test_rank_layout_row_major_in_z():
    d = PencilDecomp(8, 8, 8, py=2, pz=4, rank=5)
    assert (d.iy, d.iz) == (1, 1)
    assert d.rank_of(1, 1, 4) == 5


def test_local_extents_cover_grid():
    nx, ny, nz, py, pz = 16, 13, 11, 3, 2
    seen_y = set()
    seen_z = set()
    for rank in range(py * pz):
        d = PencilDecomp(nx, ny, nz, py, pz, rank)
        seen_y.update(range(d.y_start, d.y_start + d.ny_local))
        seen_z.update(range(d.z_start, d.z_start + d.nz_local))
        assert d.x_pencil_shape == (nx, d.ny_local, d.nz_local)
    assert seen_y == set(range(ny))
    assert seen_z == set(range(nz))


def test_y_pencil_covers_spectral_modes():
    nx, ny, nz, py, pz = 16, 12, 8, 3, 2
    seen = set()
    for iy in range(py):
        d = PencilDecomp(nx, ny, nz, py, pz, PencilDecomp.rank_of(iy, 0, pz))
        seen.update(range(d.xh_start, d.xh_start + d.nxh_local))
        assert d.y_pencil_shape == (d.nxh_local, ny, d.nz_local)
    assert seen == set(range(nx // 2 + 1))


def test_row_and_col_ranks():
    d = PencilDecomp(8, 8, 8, py=3, pz=2, rank=3)  # iy=1, iz=1
    assert d.row_ranks == [1, 3, 5]
    assert d.col_ranks == [2, 3]


def test_neighbours_periodic_y_walled_z():
    d = PencilDecomp(8, 8, 8, py=2, pz=3, rank=0)  # iy=0, iz=0
    n = d.neighbours()
    assert n["y_prev"] == 3  # (iy-1)%2=1 → rank_of(1,0,3)=3
    assert n["y_next"] == 3
    assert n["z_prev"] is None  # bottom wall
    assert n["z_next"] == 1

    top = PencilDecomp(8, 8, 8, py=2, pz=3, rank=2)  # iy=0, iz=2
    assert top.neighbours()["z_next"] is None


def test_interior_rank_has_both_z_neighbours():
    d = PencilDecomp(8, 8, 9, py=1, pz=3, rank=1)
    assert d.z_prev == 0
    assert d.z_next == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        PencilDecomp(8, 8, 8, py=2, pz=2, rank=4)
    with pytest.raises(ValueError):
        PencilDecomp(8, 1, 8, py=2, pz=2, rank=0)  # ny < py
