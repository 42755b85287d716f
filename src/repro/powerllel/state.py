"""Per-rank PowerLLEL state shared by the MPI and UNR backends.

Holds the configuration, decomposition geometry, the (optional) field
arrays, the cost model, spectral coefficients and the pack/unpack
helpers for halos and pencil transposes.  Backends differ only in how
bytes move; everything here is backend-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .costs import CostModel
from .decomp import PencilDecomp, split_sizes, split_starts
from .numerics import (
    alloc_field,
    fill_wall_ghosts,
    interior,
    modified_wavenumbers,
    rhs_forcing,
    z_tridiag_coeffs,
)

__all__ = ["PowerLLELConfig", "PhaseTimes", "RankData", "shared_spectra"]

COMPLEX = np.complex128
ITEM = 16  # bytes per complex mode
REAL_ITEM = 8


@dataclass(frozen=True)
class PowerLLELConfig:
    """One PowerLLEL run.

    ``mode='real'`` executes the numerics (small grids, validated);
    ``mode='model'`` runs the identical communication/timing schedule
    with virtual buffers (at-scale strong-scaling experiments)."""

    nx: int
    ny: int
    nz: int
    py: int
    pz: int
    steps: int = 2
    nu: float = 0.02
    dt: float = 5e-4
    mode: str = "real"
    pipeline_slabs: int = 2
    threads: Optional[int] = None  # compute threads per rank
    lengths: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if self.mode not in ("real", "model"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.pipeline_slabs < 1:
            raise ValueError("pipeline_slabs must be >= 1")

    @property
    def n_ranks(self) -> int:
        return self.py * self.pz

    @property
    def spacing(self) -> Tuple[float, float, float]:
        return (
            self.lengths[0] / self.nx,
            self.lengths[1] / self.ny,
            self.lengths[2] / self.nz,
        )


@dataclass
class PhaseTimes:
    """Per-rank wall-time breakdown (the Figure 6/7 bars)."""

    vel_update: float = 0.0
    ppe: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return self.vel_update + self.ppe + self.other

    def as_dict(self) -> Dict[str, float]:
        return {
            "vel_update": self.vel_update,
            "ppe": self.ppe,
            "other": self.other,
            "total": self.total,
        }


def shared_spectra(cfg: PowerLLELConfig) -> Tuple[np.ndarray, ...]:
    """``(lam_x, lam_y, z_lower, z_diag, z_upper)`` of one run, full
    length and read-only.  They depend on the configuration alone, so
    :func:`~repro.powerllel.run_powerllel` builds them once and hands
    the same arrays to every rank's :class:`RankData`."""
    dx, dy, dz = cfg.spacing
    arrays = (
        modified_wavenumbers(cfg.nx, dx, real_half=True),
        modified_wavenumbers(cfg.ny, dy),
        *z_tridiag_coeffs(cfg.nz, dz),
    )
    for array in arrays:
        array.setflags(write=False)
    return arrays


class RankData:
    """Arrays + geometry + costs for one rank."""

    def __init__(self, ctx, cfg: PowerLLELConfig,
                 spectra: Optional[Tuple[np.ndarray, ...]] = None):
        self.ctx = ctx
        self.cfg = cfg
        self.dec = PencilDecomp(cfg.nx, cfg.ny, cfg.nz, cfg.py, cfg.pz, ctx.rank)
        node_spec = ctx.node.spec
        threads = cfg.threads or max(ctx.node.cpu.available // ctx.job.ranks_per_node, 1)
        self.threads = threads
        self.cost = CostModel(core_flops=node_spec.core_flops, threads=threads)
        self.times = PhaseTimes()
        from collections import Counter

        #: fine-grained wall-time marks (sub-phase → seconds)
        self.detail: Counter = Counter()
        dec = self.dec
        # The two extents every transpose size query multiplies by,
        # resolved once (the decomposition is frozen; each property
        # read is a block_of call).
        self.ny_local = dec.ny_local
        self.nxh_local = dec.nxh_local
        self.cells = cfg.nx * self.ny_local * dec.nz_local
        self.is_bottom = dec.iz == 0
        self.is_top = dec.iz == cfg.pz - 1
        self.real = cfg.mode == "real"

        # Spectral geometry (independent of mode): the run's shared
        # arrays, ``lam_x`` a view of the x-modes this rank owns.
        lam_x, self.lam_y, self.z_lower, self.z_diag, self.z_upper = (
            spectra if spectra is not None else shared_spectra(cfg)
        )
        self.lam_x = lam_x[dec.xh_start : dec.xh_start + dec.nxh_local]
        self.n_modes = dec.nxh_local * cfg.ny  # tridiagonal systems I own

        # Transpose slot geometry: who sends how much to whom, per slab.
        self.slabs = self._slab_splits()
        self.xh_sizes = split_sizes(dec.nxh, cfg.py)
        self.xh_starts = split_starts(dec.nxh, cfg.py)
        self.y_sizes = split_sizes(cfg.ny, cfg.py)
        self.y_starts = split_starts(cfg.ny, cfg.py)

        if self.real:
            nx, nyl, nzl = dec.x_pencil_shape
            self.u = alloc_field(nx, nyl, nzl)
            self.v = alloc_field(nx, nyl, nzl)
            self.w = alloc_field(nx, nyl, nzl)
            self.p = alloc_field(nx, nyl, nzl)
            self.forcing = rhs_forcing(
                nx, nyl, nzl, dec.y_start, dec.z_start, ny=cfg.ny, nz=cfg.nz
            )
            rng = np.random.default_rng(42)
            full = rng.standard_normal((nx, cfg.ny, cfg.nz)) * 0.1
            ys, zs = dec.y_start, dec.z_start
            interior(self.u)[...] = full[:, ys : ys + nyl, zs : zs + nzl]
            full_v = rng.standard_normal((nx, cfg.ny, cfg.nz)) * 0.1
            interior(self.v)[...] = full_v[:, ys : ys + nyl, zs : zs + nzl]
            full_w = rng.standard_normal((nx, cfg.ny, cfg.nz)) * 0.1
            interior(self.w)[...] = full_w[:, ys : ys + nyl, zs : zs + nzl]
            # RK midpoint fields.
            self.u1 = alloc_field(nx, nyl, nzl)
            self.v1 = alloc_field(nx, nyl, nzl)
            self.w1 = alloc_field(nx, nyl, nzl)
            # Spectral work arrays.
            self.xspec = np.zeros((dec.nxh, nyl, nzl), dtype=COMPLEX)
            self.yspec = np.zeros(dec.y_pencil_shape, dtype=COMPLEX)
        else:
            self.u = self.v = self.w = self.p = None
            self.u1 = self.v1 = self.w1 = None
            self.xspec = self.yspec = None

    # ------------------------------------------------------------------
    def _slab_splits(self) -> List[Tuple[int, int]]:
        """(start, size) z-slabs of the local pencil for pipelining."""
        nzl = self.dec.nz_local
        s = min(self.cfg.pipeline_slabs, nzl)
        sizes = split_sizes(nzl, s)
        starts = split_starts(nzl, s)
        return [(starts[i], sizes[i]) for i in range(s) if sizes[i] > 0]

    # -- message sizes (bytes) ------------------------------------------------
    def halo_y_bytes(self, n_fields: int = 3) -> int:
        return n_fields * self.cfg.nx * self.dec.nz_local * REAL_ITEM

    def halo_z_bytes(self, n_fields: int = 3) -> int:
        return n_fields * self.cfg.nx * self.dec.ny_local * REAL_ITEM

    def fwd_slot_bytes(self, peer_j: int, slab: int) -> int:
        """Bytes I send to row-peer ``peer_j`` in forward-transpose slab."""
        _zs, zn = self.slabs[slab]
        return self.xh_sizes[peer_j] * self.ny_local * zn * ITEM

    def fwd_recv_bytes(self, from_j: int, slab: int) -> int:
        _zs, zn = self.slabs[slab]
        return self.nxh_local * self.y_sizes[from_j] * zn * ITEM

    def inv_slot_bytes(self, peer_j: int, slab: int) -> int:
        _zs, zn = self.slabs[slab]
        return self.nxh_local * self.y_sizes[peer_j] * zn * ITEM

    def inv_recv_bytes(self, from_j: int, slab: int) -> int:
        _zs, zn = self.slabs[slab]
        return self.xh_sizes[from_j] * self.ny_local * zn * ITEM

    def pdd_boundary_bytes(self) -> int:
        return 2 * self.n_modes * ITEM

    # -- halo pack/unpack ----------------------------------------------------
    def pack_halo(self, fields: List[np.ndarray], direction: str) -> Optional[np.ndarray]:
        """Pack the boundary planes of ``fields`` for ``direction``.

        Directions: ``y_prev``/``y_next``/``z_prev``/``z_next`` name the
        *neighbour the data goes to* (they receive it as their opposite
        ghost)."""
        if not self.real:
            return None
        planes = []
        for f in fields:
            if direction == "y_prev":
                planes.append(f[:, 1, 1:-1])
            elif direction == "y_next":
                planes.append(f[:, -2, 1:-1])
            elif direction == "z_prev":
                planes.append(f[:, 1:-1, 1])
            elif direction == "z_next":
                planes.append(f[:, 1:-1, -2])
            else:
                raise ValueError(direction)
        return np.ascontiguousarray(np.stack(planes))

    def unpack_halo(self, fields: List[np.ndarray], direction: str, buf: np.ndarray) -> None:
        """Fill ghosts from a neighbour's packed planes.

        ``direction`` names the neighbour the data came *from*."""
        if not self.real:
            return
        data = buf.reshape(
            (len(fields), self.cfg.nx, -1)
        )
        for i, f in enumerate(fields):
            if direction == "y_prev":
                f[:, 0, 1:-1] = data[i]
            elif direction == "y_next":
                f[:, -1, 1:-1] = data[i]
            elif direction == "z_prev":
                f[:, 1:-1, 0] = data[i]
            elif direction == "z_next":
                f[:, 1:-1, -1] = data[i]
            else:
                raise ValueError(direction)

    def reflect_wall_ghosts(self, fields: List[np.ndarray]) -> None:
        if not self.real:
            return
        for f in fields:
            fill_wall_ghosts(f, self.is_bottom, self.is_top)

    # -- transpose pack/unpack ---------------------------------------------------
    def pack_fwd(self, peer_j: int, slab: int) -> Optional[np.ndarray]:
        """xspec block destined to row-peer ``peer_j`` for z-slab ``slab``."""
        if not self.real:
            return None
        zs, zn = self.slabs[slab]
        xs = self.xh_starts[peer_j]
        xn = self.xh_sizes[peer_j]
        return np.ascontiguousarray(self.xspec[xs : xs + xn, :, zs : zs + zn])

    def unpack_fwd(self, from_j: int, slab: int, buf: np.ndarray) -> None:
        """Place peer ``from_j``'s contribution into my y-pencil."""
        if not self.real:
            return
        zs, zn = self.slabs[slab]
        ys = self.y_starts[from_j]
        yn = self.y_sizes[from_j]
        self.yspec[:, ys : ys + yn, zs : zs + zn] = buf.reshape(
            (self.dec.nxh_local, yn, zn)
        )

    def pack_inv(self, peer_j: int, slab: int) -> Optional[np.ndarray]:
        """y-pencil block going back to row-peer ``peer_j``."""
        if not self.real:
            return None
        zs, zn = self.slabs[slab]
        ys = self.y_starts[peer_j]
        yn = self.y_sizes[peer_j]
        return np.ascontiguousarray(self.yspec[:, ys : ys + yn, zs : zs + zn])

    def unpack_inv(self, from_j: int, slab: int, buf: np.ndarray) -> None:
        if not self.real:
            return
        zs, zn = self.slabs[slab]
        xs = self.xh_starts[from_j]
        xn = self.xh_sizes[from_j]
        self.xspec[xs : xs + xn, :, zs : zs + zn] = buf.reshape(
            (xn, self.dec.ny_local, zn)
        )

    # -- timing -------------------------------------------------------------
    def charge(self, seconds: float):
        """Generator: charge compute time to this rank's node."""
        return self.ctx.compute(seconds, threads=self.threads)
