"""2D pencil decomposition for PowerLLEL (paper Figure 3b/3c).

The 3D grid ``nx × ny × nz`` is decomposed over a ``py × pz`` process
grid.  In the **x-pencil** state each rank holds the full x extent and
blocks of y and z; transposing to the **y-pencil** redistributes x over
the row communicator while gathering y.  The z split never changes —
the tridiagonal solver works on the z-distributed data directly (PDD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["split_sizes", "split_starts", "block_of", "PencilDecomp"]


def split_sizes(n: int, p: int) -> List[int]:
    """Balanced block sizes of ``n`` items over ``p`` parts (larger first)."""
    if p < 1 or n < 0:
        raise ValueError(f"bad split n={n} p={p}")
    base, extra = divmod(n, p)
    return [base + (1 if i < extra else 0) for i in range(p)]


def split_starts(n: int, p: int) -> List[int]:
    """Start offsets matching :func:`split_sizes`."""
    sizes = split_sizes(n, p)
    starts = [0] * p
    for i in range(1, p):
        starts[i] = starts[i - 1] + sizes[i - 1]
    return starts


def block_of(n: int, p: int, i: int) -> Tuple[int, int]:
    """(start, size) of block ``i``: element ``i`` of :func:`split_starts`
    and :func:`split_sizes`, in closed form (no O(p) list)."""
    if p < 1 or n < 0:
        raise ValueError(f"bad split n={n} p={p}")
    if not 0 <= i < p:
        raise IndexError(f"block {i} outside 0..{p - 1}")
    base, extra = divmod(n, p)
    return i * base + min(i, extra), base + (i < extra)


@dataclass(frozen=True)
class PencilDecomp:
    """Geometry of one rank in the ``py × pz`` pencil decomposition.

    Ranks are laid out row-major: ``rank = iy * pz + iz`` so that a
    *column* (fixed iy, varying iz) is contiguous in z — the direction
    of the tridiagonal solve — and a *row* (fixed iz, varying iy) forms
    the transpose communicator.
    """

    nx: int
    ny: int
    nz: int
    py: int
    pz: int
    rank: int

    def __post_init__(self) -> None:
        if self.py * self.pz < 1:
            raise ValueError("process grid must be non-empty")
        if not 0 <= self.rank < self.py * self.pz:
            raise ValueError(f"rank {self.rank} outside {self.py}x{self.pz} grid")
        if self.ny < self.py or self.nz < self.pz:
            raise ValueError("grid too small for the process grid")

    # -- process-grid coordinates ------------------------------------------
    @property
    def iy(self) -> int:
        return self.rank // self.pz

    @property
    def iz(self) -> int:
        return self.rank % self.pz

    @staticmethod
    def rank_of(iy: int, iz: int, pz: int) -> int:
        return iy * pz + iz

    # -- local extents -------------------------------------------------------
    @property
    def y_start(self) -> int:
        return block_of(self.ny, self.py, self.iy)[0]

    @property
    def ny_local(self) -> int:
        return block_of(self.ny, self.py, self.iy)[1]

    @property
    def z_start(self) -> int:
        return block_of(self.nz, self.pz, self.iz)[0]

    @property
    def nz_local(self) -> int:
        return block_of(self.nz, self.pz, self.iz)[1]

    @property
    def x_pencil_shape(self) -> Tuple[int, int, int]:
        return (self.nx, self.ny_local, self.nz_local)

    # -- spectral (y-pencil) extents -----------------------------------------
    @property
    def nxh(self) -> int:
        """Number of rfft modes along x."""
        return self.nx // 2 + 1

    @property
    def xh_start(self) -> int:
        return block_of(self.nxh, self.py, self.iy)[0]

    @property
    def nxh_local(self) -> int:
        return block_of(self.nxh, self.py, self.iy)[1]

    @property
    def y_pencil_shape(self) -> Tuple[int, int, int]:
        return (self.nxh_local, self.ny, self.nz_local)

    # -- communicators ---------------------------------------------------------
    @property
    def row_ranks(self) -> List[int]:
        """Ranks sharing my z block (the transpose communicator)."""
        return [self.rank_of(j, self.iz, self.pz) for j in range(self.py)]

    @property
    def col_ranks(self) -> List[int]:
        """Ranks sharing my y block (the PDD / z-neighbour communicator)."""
        return [self.rank_of(self.iy, k, self.pz) for k in range(self.pz)]

    # -- stencil neighbours -------------------------------------------------------
    @property
    def y_prev(self) -> int:
        """Previous-y neighbour (periodic)."""
        return self.rank_of((self.iy - 1) % self.py, self.iz, self.pz)

    @property
    def y_next(self) -> int:
        return self.rank_of((self.iy + 1) % self.py, self.iz, self.pz)

    @property
    def z_prev(self) -> Optional[int]:
        """Lower-z neighbour, ``None`` at the bottom wall."""
        if self.iz == 0:
            return None
        return self.rank_of(self.iy, self.iz - 1, self.pz)

    @property
    def z_next(self) -> Optional[int]:
        if self.iz == self.pz - 1:
            return None
        return self.rank_of(self.iy, self.iz + 1, self.pz)

    def neighbours(self) -> dict:
        return {
            "y_prev": self.y_prev,
            "y_next": self.y_next,
            "z_prev": self.z_prev,
            "z_next": self.z_next,
        }
