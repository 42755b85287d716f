"""PowerLLEL baseline backend: two-sided MPI, explicit synchronization.

This is the original-PowerLLEL communication structure the paper's
Figure 6 uses as its baseline:

* RK velocity update — blocking halo exchange (Isend/Irecv/Waitall)
  before each substep's stencil; no overlap.
* PPE solver — full pack → ``MPI_Alltoallv`` → unpack for each pencil
  transpose (the rendezvous handshakes inside the alltoall are exactly
  the cost UNR later removes), ``MPI_Sendrecv`` boundary exchange in
  the PDD tridiagonal solver, and an allgather for the singular zero
  mode.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..mpi import MpiWorld, Phantom
from .numerics import (
    apply_pressure_correction,
    divergence,
    interior,
    momentum_rhs,
)
from .state import PowerLLELConfig, RankData, opposite
from .tridiag import pdd_boundary, pdd_correct, pdd_local_factor, thomas

__all__ = ["powerllel_mpi_rank"]


def _payload(rd: RankData, real_buf: Optional[np.ndarray], nbytes: int):
    if rd.real and real_buf is not None:
        return real_buf
    return Phantom(nbytes)


def _halo_exchange(rd: RankData, comm, fields: List[np.ndarray], tag: str):
    """Blocking two-sided halo exchange in y (periodic) and z (walls)."""
    dec = rd.dec
    nf = len(fields) if rd.real else 3
    reqs = []
    recvs = []  # (direction, request)
    # Post receives first.
    pairs = [("y_prev", dec.y_prev), ("y_next", dec.y_next)]
    if dec.z_prev is not None:
        pairs.append(("z_prev", dec.z_prev))
    if dec.z_next is not None:
        pairs.append(("z_next", dec.z_next))
    for direction, peer in pairs:
        recvs.append((direction, comm.irecv(peer, tag=(tag, opposite(direction)))))
    # Sends: pack + ship the boundary planes.
    for direction, peer in pairs:
        buf = rd.pack_halo(fields, direction) if rd.real else None
        nbytes = rd.halo_y_bytes(nf) if direction.startswith("y") else rd.halo_z_bytes(nf)
        yield from rd.charge(rd.cost.halo_pack(nbytes))
        reqs.append(comm.isend(peer, _payload(rd, buf, nbytes), tag=(tag, direction)))
    for direction, req in recvs:
        data = yield req.event
        if rd.real and not isinstance(data, Phantom):
            rd.unpack_halo(fields, direction, data)
            yield from rd.charge(rd.cost.halo_pack(data.nbytes))
    for req in reqs:
        yield req.event
    rd.reflect_wall_ghosts(fields)


def _transpose(rd: RankData, row_comm, forward: bool):
    """Full pack → alltoallv → unpack pencil transpose (no pipelining)."""
    py = rd.cfg.py
    n_slabs = len(rd.slabs)
    blocks = []
    pack_bytes = 0
    for j in range(py):
        nbytes = sum(
            (rd.fwd_slot_bytes(j, s) if forward else rd.inv_slot_bytes(j, s))
            for s in range(n_slabs)
        )
        pack_bytes += nbytes
        if rd.real:
            parts = [
                (rd.pack_fwd(j, s) if forward else rd.pack_inv(j, s)).reshape(-1)
                for s in range(n_slabs)
            ]
            blocks.append(np.concatenate(parts))
        else:
            blocks.append(Phantom(nbytes))
    yield from rd.charge(rd.cost.pack(pack_bytes))
    got = yield from row_comm.alltoallv(blocks)
    unpack_bytes = 0
    for j, buf in enumerate(got):
        if buf is None:
            continue
        nbytes = sum(
            (rd.fwd_recv_bytes(j, s) if forward else rd.inv_recv_bytes(j, s))
            for s in range(n_slabs)
        )
        unpack_bytes += nbytes
        if rd.real and not isinstance(buf, Phantom):
            arr = buf.view(np.complex128)
            off = 0
            for s in range(n_slabs):
                count = (
                    rd.fwd_recv_bytes(j, s) if forward else rd.inv_recv_bytes(j, s)
                ) // 16
                chunk = arr[off : off + count]
                if forward:
                    rd.unpack_fwd(j, s, chunk)
                else:
                    rd.unpack_inv(j, s, chunk)
                off += count
    yield from rd.charge(rd.cost.pack(unpack_bytes))


def _pdd_solve(rd: RankData, col_comm, rhs_modes: Optional[np.ndarray]):
    """Distributed tridiagonal solve in z: PDD + exact zero mode.

    ``rhs_modes`` has shape ``(n_modes, nz_local)`` (None in model
    mode).  Returns the solution in the same shape."""
    cfg = rd.cfg
    dec = rd.dec
    m = dec.nz_local
    zs = dec.z_start
    # Local factorization: x̃, v, w for every mode.
    yield from rd.charge(rd.cost.tridiag(rd.n_modes * m, nrhs_factor=3.0))
    sol = None
    to_prev = to_next = None
    v = w = None
    x_tilde = None
    zero_rows = None
    if rd.real:
        lam = (rd.lam_x[:, None] + rd.lam_y[None, :]).reshape(-1)
        diag = rd.z_diag[zs : zs + m][None, :] + lam[:, None]
        lower = np.broadcast_to(rd.z_lower[zs : zs + m], diag.shape).copy()
        upper = np.broadcast_to(rd.z_upper[zs : zs + m], diag.shape).copy()
        alpha = None if dec.z_prev is None else np.full(rd.n_modes, 1.0 / cfg.spacing[2] ** 2)
        gamma = None if dec.z_next is None else np.full(rd.n_modes, 1.0 / cfg.spacing[2] ** 2)
        zero_rows = np.nonzero(lam == 0.0)[0]
        rhs_local = rhs_modes.copy()
        if zero_rows.size and dec.iz == 0:
            # Pin p[0] = 0 for the singular zero mode so the local
            # factorization stays non-singular (the mode is solved
            # exactly by the gathered Thomas below).
            diag[zero_rows, 0] = 1.0
            upper[zero_rows, 0] = 0.0
        # The singular zero mode is solved exactly later; keep PDD away
        # from it (weak diagonal dominance breaks the truncation).
        if zero_rows.size:
            rhs_local[zero_rows] = 0.0
        x_tilde, v, w = pdd_local_factor(lower, diag, upper, rhs_local, alpha, gamma)
        bounds = pdd_boundary(x_tilde, v, w)
        to_prev, to_next = bounds["to_prev"], bounds["to_next"]

    # Boundary exchange with z neighbours (paper Fig. 3e Pipeline 2).
    nbytes = rd.pdd_boundary_bytes()
    from_prev = from_next = None
    me = dec.iz
    reqs = []
    if dec.z_prev is not None:
        reqs.append(col_comm.isend(me - 1, _payload(rd, to_prev, nbytes), tag="pddup"))
        r = col_comm.irecv(me - 1, tag="pdddn")
        data = yield r.event
        if rd.real and not isinstance(data, Phantom):
            from_prev = data
    if dec.z_next is not None:
        reqs.append(col_comm.isend(me + 1, _payload(rd, to_next, nbytes), tag="pdddn"))
        r = col_comm.irecv(me + 1, tag="pddup")
        data = yield r.event
        if rd.real and not isinstance(data, Phantom):
            from_next = data
    for req in reqs:
        yield req.event
    yield from rd.charge(rd.cost.tridiag(rd.n_modes * 2))
    if rd.real:
        sol = pdd_correct(x_tilde, v, w, from_prev, from_next)

    # Zero mode (kx = ky = 0): allgather the full rhs along z and solve
    # the pinned system exactly — only the column owning kx = 0 does it.
    if dec.xh_start == 0:
        if rd.real:
            zero_idx = int(zero_rows[0])
            mine = rhs_modes[zero_idx].real.copy()
        else:
            mine = Phantom(m * 8)
        parts = yield from col_comm.allgather(mine)
        yield from rd.charge(rd.cost.tridiag(cfg.nz))
        if rd.real:
            full = np.concatenate([np.asarray(p) for p in parts])
            lower = rd.z_lower.copy()
            diag = rd.z_diag.copy()
            upper = rd.z_upper.copy()
            rhs0 = full.copy()
            diag[0] = 1.0
            upper[0] = 0.0
            rhs0[0] = 0.0
            x0 = thomas(lower[None, :], diag[None, :], upper[None, :], rhs0[None, :])[0]
            sol[zero_idx] = x0[zs : zs + m]
    return sol


def powerllel_mpi_rank(ctx, cfg: PowerLLELConfig, world: MpiWorld, out: dict, spectra=None):
    """One rank of the MPI-baseline PowerLLEL (generator)."""
    rd = RankData(ctx, cfg, spectra)
    dec = rd.dec
    comm = world.comm_world(ctx.rank)
    row_comm = world.comm(ctx.rank, dec.row_ranks)
    col_comm = world.comm(ctx.rank, dec.col_ranks)
    env = ctx.env
    dt, nu = cfg.dt, cfg.nu
    spacing = cfg.spacing
    cells = rd.cells

    yield from comm.barrier()
    t_start = env.now

    for _step in range(cfg.steps):
        # ----------------------------------------------- velocity update
        t0 = env.now
        for substep in (1, 2):
            fields = (
                [rd.u, rd.v, rd.w] if substep == 1 else [rd.u1, rd.v1, rd.w1]
            )
            if rd.real:
                yield from _halo_exchange(rd, comm, fields, tag=f"rk{substep}")
            else:
                yield from _halo_exchange(rd, comm, [None] * 3, tag=f"rk{substep}")
            yield from rd.charge(rd.cost.momentum_rhs(cells) + rd.cost.axpy(cells))
            if rd.real:
                rhs = momentum_rhs(
                    fields[0], fields[1], fields[2], rd.forcing, nu, spacing
                )
                if substep == 1:
                    interior(rd.u1)[...] = interior(rd.u) + 0.5 * dt * rhs["u"]
                    interior(rd.v1)[...] = interior(rd.v) + 0.5 * dt * rhs["v"]
                    interior(rd.w1)[...] = interior(rd.w) + 0.5 * dt * rhs["w"]
                else:
                    interior(rd.u)[...] += dt * rhs["u"]
                    interior(rd.v)[...] += dt * rhs["v"]
                    interior(rd.w)[...] += dt * rhs["w"]
        if rd.real and rd.is_top:
            interior(rd.w)[:, :, -1] = 0.0
        rd.times.vel_update += env.now - t0

        # ------------------------------------------------------ PPE solver
        t0 = env.now
        tm = env.now
        if rd.real:
            yield from _halo_exchange(rd, comm, [rd.u, rd.v, rd.w], tag="div")
        else:
            yield from _halo_exchange(rd, comm, [None] * 3, tag="div")
        yield from rd.charge(rd.cost.div_or_grad(cells))
        rd.detail["ppe_halo_div"] += env.now - tm
        tm = env.now
        rhs_modes = None
        if rd.real:
            div = divergence(rd.u, rd.v, rd.w, spacing, rd.is_bottom)
            rd.xspec[...] = np.fft.rfft(div, axis=0)
        yield from rd.charge(rd.cost.fft(cells, cfg.nx))
        yield from _transpose(rd, row_comm, forward=True)
        yield from rd.charge(rd.cost.fft(dec.nxh_local * cfg.ny * dec.nz_local, cfg.ny))
        if rd.real:
            rd.yspec[...] = np.fft.fft(rd.yspec, axis=1)
            rhs_modes = rd.yspec.reshape(rd.n_modes, dec.nz_local)
        rd.detail["ppe_fwd_transpose"] += env.now - tm
        tm = env.now
        sol = yield from _pdd_solve(rd, col_comm, rhs_modes)
        rd.detail["ppe_pdd"] += env.now - tm
        tm = env.now
        yield from rd.charge(rd.cost.fft(dec.nxh_local * cfg.ny * dec.nz_local, cfg.ny))
        if rd.real:
            rd.yspec[...] = np.fft.ifft(
                sol.reshape(dec.nxh_local, cfg.ny, dec.nz_local), axis=1
            )
        yield from _transpose(rd, row_comm, forward=False)
        yield from rd.charge(rd.cost.fft(cells, cfg.nx))
        if rd.real:
            interior(rd.p)[...] = np.fft.irfft(rd.xspec, n=cfg.nx, axis=0)
        rd.detail["ppe_inv_transpose"] += env.now - tm
        rd.times.ppe += env.now - t0

        # ------------------------------------------------------ correction
        t0 = env.now
        if rd.real:
            yield from _halo_exchange(rd, comm, [rd.p], tag="corr")
            yield from rd.charge(rd.cost.div_or_grad(cells))
            apply_pressure_correction(rd.u, rd.v, rd.w, rd.p, spacing, rd.is_top)
        else:
            yield from _halo_exchange(rd, comm, [None], tag="corr")
            yield from rd.charge(rd.cost.div_or_grad(cells))
        rd.times.other += env.now - t0

    yield from comm.barrier()
    out[ctx.rank] = {
        "time": env.now - t_start,
        "phases": rd.times.as_dict(),
        "rank_data": rd,
    }
    return out[ctx.rank]
