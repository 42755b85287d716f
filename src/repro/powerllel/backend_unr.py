"""PowerLLEL optimized backend: UNR notifiable PUTs, sync-free.

Reproduces the paper's §V-C optimizations:

* **Velocity update (Fig. 3d)** — each RK substep's halo exchange has
  its own buffers and signals, so RK1 and RK2 act as each other's
  pre-synchronization; all explicit synchronization is gone.  Puts are
  posted as soon as planes are packed; the stencil waits only on its
  own receive signal.
* **PPE solver (Fig. 3e)** — the pencil transposes are pipelined: each
  z-slab is FFT'd, packed and PUT as soon as it is ready, and consumed
  slab-by-slab on the receiver through per-slab MMAS signals
  (``num_event = py``, one event per source).  The PDD tridiagonal
  solver exchanges its boundary payloads with the top/bottom
  neighbours through notified PUTs.
* **Bug-avoidance** — every buffer reuse goes through
  ``sig_wait``/``sig_reset``, so early arrivals or lost messages
  trip the library's checks instead of corrupting data.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core import Unr, UnrEndpoint
from .numerics import (
    apply_pressure_correction,
    divergence,
    interior,
    momentum_rhs,
)
from .state import PowerLLELConfig, RankData
from .tridiag import pdd_boundary, pdd_correct, pdd_local_factor, thomas

__all__ = ["powerllel_unr_rank"]


def _opp(direction: str) -> str:
    return {
        "y_prev": "y_next",
        "y_next": "y_prev",
        "z_prev": "z_next",
        "z_next": "z_prev",
    }[direction]


class _UnrHalo:
    """One phase's halo machinery (own buffers + signals per phase)."""

    def __init__(self, rd: RankData, ep: UnrEndpoint, tag: str, n_fields: int):
        self.rd = rd
        self.ep = ep
        self.tag = tag
        self.n_fields = n_fields
        dec = rd.dec
        pairs = [("y_prev", dec.y_prev), ("y_next", dec.y_next)]
        if dec.z_prev is not None:
            pairs.append(("z_prev", dec.z_prev))
        if dec.z_next is not None:
            pairs.append(("z_next", dec.z_next))
        self.pairs = pairs
        self.sizes = {
            d: (rd.halo_y_bytes(n_fields) if d.startswith("y") else rd.halo_z_bytes(n_fields))
            for d, _ in pairs
        }
        total = sum(self.sizes.values())
        self.offsets = {}
        off = 0
        for d, _ in pairs:
            self.offsets[d] = off
            off += self.sizes[d]
        self.recv_sig = ep.sig_init(len(pairs))
        self.send_sig = ep.sig_init(len(pairs))
        if rd.real:
            self.recv_buf = np.zeros(total, dtype=np.uint8)
            self.send_buf = np.zeros(total, dtype=np.uint8)
            self.recv_mr = ep.mem_reg(self.recv_buf)
            self.send_mr = ep.mem_reg(self.send_buf)
        else:
            self.recv_mr = ep.mem_reg_virtual(total)
            self.send_mr = ep.mem_reg_virtual(total)
        self.recv_blk = {
            d: ep.blk_init(self.recv_mr, self.offsets[d], self.sizes[d], signal=self.recv_sig)
            for d, _ in pairs
        }
        self.send_blk = {
            d: ep.blk_init(self.send_mr, self.offsets[d], self.sizes[d], signal=self.send_sig)
            for d, _ in pairs
        }
        self.peer_blk: Dict[str, object] = {}
        self.used = False

    def setup(self):
        """Generator: exchange BLK handles with every neighbour."""
        for d, peer in self.pairs:
            yield from self.ep.send_ctl(peer, self.recv_blk[d], tag=(self.tag, d))
        for d, peer in self.pairs:
            self.peer_blk[d] = yield from self.ep.recv_ctl(peer, tag=(self.tag, _opp(d)))

    def exchange(self, fields: List[Optional[np.ndarray]]):
        """Generator: sync-free halo exchange for this phase."""
        rd, ep = self.rd, self.ep
        if self.used:
            # Source buffers must be reusable before repacking.
            yield from ep.sig_wait(self.send_sig)
            ep.sig_reset(self.send_sig)
        self.used = True
        pack_bytes = sum(self.sizes.values())
        yield from rd.charge(rd.cost.halo_pack(pack_bytes))
        for d, _peer in self.pairs:
            if rd.real:
                packed = rd.pack_halo(fields, d).reshape(-1).view(np.uint8)
                self.send_buf[self.offsets[d] : self.offsets[d] + self.sizes[d]] = packed
            ep.put(self.send_blk[d], self.peer_blk[d])
        yield from ep.sig_wait(self.recv_sig)
        if rd.real:
            for d, _peer in self.pairs:
                raw = self.recv_buf[self.offsets[d] : self.offsets[d] + self.sizes[d]]
                rd.unpack_halo(fields, d, raw.view(np.float64))
        yield from rd.charge(rd.cost.halo_pack(pack_bytes))
        # Ghosts consumed into the field arrays: buffers are ready again.
        ep.sig_reset(self.recv_sig)
        rd.reflect_wall_ghosts(fields)


class _UnrTranspose:
    """One direction of the pipelined pencil transpose.

    ``send_blk[j][s]`` and ``recv_blk[j][s]`` are the blocks for row peer
    ``j`` and slab ``s``, laid out row by row in one region per side: a
    BLK's ``offset`` and ``size`` are its slot in the buffer."""

    def __init__(self, rd: RankData, ep: UnrEndpoint, forward: bool, tag: str):
        self.rd = rd
        self.ep = ep
        self.tag = tag
        self.peers = rd.dec.row_ranks
        py, n_slabs = rd.cfg.py, len(rd.slabs)
        # One signal per slab on the receive side (num_event = py: one
        # event per source, paper Fig. 3e); one reuse-guard per side.
        self.slab_sig = [ep.sig_init(py) for _ in range(n_slabs)]
        self.send_sig = ep.sig_init(py * n_slabs)
        self.send_buf, self.send_blk = self._rows(
            rd.fwd_slot_bytes if forward else rd.inv_slot_bytes,
            [self.send_sig] * n_slabs,
        )
        self.recv_buf, self.recv_blk = self._rows(
            rd.fwd_recv_bytes if forward else rd.inv_recv_bytes, self.slab_sig
        )
        self.peer_blk: List[tuple] = []
        self.used = False

    def _rows(self, size, slab_sigs):
        """Register one region for the ``size(j, s)`` blocks and carve it,
        in a single running-offset pass, into one tuple of per-slab BLKs
        per row peer (slab ``s`` bound to ``slab_sigs[s]``).  Returns the
        buffer (None in model mode) and the rows."""
        rd, ep = self.rd, self.ep
        py, n_slabs = len(self.peers), len(slab_sigs)
        total = max(sum(size(j, s) for j in range(py) for s in range(n_slabs)), 1)
        buf = np.zeros(total, dtype=np.uint8) if rd.real else None
        mr = ep.mem_reg_virtual(total) if buf is None else ep.mem_reg(buf)
        rows, off = [], 0
        for j in range(py):
            row = []
            for s, sig in enumerate(slab_sigs):
                nbytes = size(j, s)
                row.append(ep.blk_init(mr, off, nbytes, signal=sig))
                off += nbytes
            rows.append(tuple(row))
        return buf, rows

    def setup(self):
        """Generator: ship my receive BLKs to every row peer (one ctl
        message per peer carries its whole per-slab row)."""
        me = self.rd.dec.iy
        for j, peer in enumerate(self.peers):
            # Peer j writes into my slot row indexed by *its* iy.
            yield from self.ep.send_ctl(peer, self.recv_blk[j], tag=(self.tag, me))
        for j, peer in enumerate(self.peers):
            self.peer_blk.append((yield from self.ep.recv_ctl(peer, tag=(self.tag, j))))

    def begin_iteration(self):
        """Generator: reuse guard for the send buffers."""
        if self.used:
            yield from self.ep.sig_wait(self.send_sig)
            self.ep.sig_reset(self.send_sig)
        self.used = True

    def put_slab(self, s: int, pack_fn):
        """Pack slab ``s`` for every peer and post the PUTs (non-blocking
        after the pack compute charge).  ``pack_fn(j, s)`` returns the
        packed block (or None in model mode)."""
        rd, ep = self.rd, self.ep
        py = len(self.peers)
        pack_bytes = 0
        for j, row in enumerate(self.send_blk):
            blk = row[s]
            pack_bytes += blk.size
            if rd.real:
                raw = pack_fn(j, s).reshape(-1).view(np.uint8)
                self.send_buf[blk.offset : blk.offset + blk.size] = raw
        yield from rd.charge(rd.cost.pack(pack_bytes))
        # Rotated target order (peer me+1 first, self last): with a
        # fixed 0..py-1 order every sender's tx queue serves row 0
        # first and the last row's slab always arrives late — the same
        # hotspot a pairwise-exchange alltoall avoids.
        me = self.rd.dec.iy
        order = [(me + k) % py for k in range(1, py)] + [me]
        for j in order:
            # peer j stores my block in its slot row for my iy.
            ep.put(self.send_blk[j][s], self.peer_blk[j][s])

    def wait_slab(self, s: int, unpack_fn):
        """Generator: wait for slab ``s`` from every source, consume it."""
        rd, ep = self.rd, self.ep
        yield from ep.sig_wait(self.slab_sig[s])
        unpack_bytes = 0
        for j, row in enumerate(self.recv_blk):
            blk = row[s]
            unpack_bytes += blk.size
            if rd.real:
                raw = self.recv_buf[blk.offset : blk.offset + blk.size]
                unpack_fn(j, s, raw.view(np.complex128))
        yield from rd.charge(rd.cost.pack(unpack_bytes))
        ep.sig_reset(self.slab_sig[s])


class _UnrPairExchange:
    """Notified bidirectional exchange with one neighbour (PDD legs)."""

    def __init__(self, rd: RankData, ep: UnrEndpoint, peer: int, nbytes: int, tag: str):
        self.rd = rd
        self.ep = ep
        self.peer = peer
        self.nbytes = nbytes
        self.tag = tag
        self.recv_sig = ep.sig_init(1)
        self.send_sig = ep.sig_init(1)
        if rd.real:
            self.recv_buf = np.zeros(nbytes, dtype=np.uint8)
            self.send_buf = np.zeros(nbytes, dtype=np.uint8)
            self.recv_mr = ep.mem_reg(self.recv_buf)
            self.send_mr = ep.mem_reg(self.send_buf)
        else:
            self.recv_mr = ep.mem_reg_virtual(nbytes)
            self.send_mr = ep.mem_reg_virtual(nbytes)
        self.recv_blk = ep.blk_init(self.recv_mr, 0, nbytes, signal=self.recv_sig)
        self.send_blk = ep.blk_init(self.send_mr, 0, nbytes, signal=self.send_sig)
        self.peer_blk = None
        self.used = False

    def setup(self):
        # Both sides of the link must agree on the tag.
        link = (self.tag, tuple(sorted((self.ep.rank, self.peer))))
        self.peer_blk = yield from self.ep.exchange_blk(self.peer, self.recv_blk, tag=link)

    def exchange(self, payload: Optional[np.ndarray]):
        """Generator: send ``payload``, return the peer's (None in model)."""
        rd, ep = self.rd, self.ep
        if self.used:
            yield from ep.sig_wait(self.send_sig)
            ep.sig_reset(self.send_sig)
        self.used = True
        if rd.real:
            self.send_buf[:] = payload.reshape(-1).view(np.uint8)
        ep.put(self.send_blk, self.peer_blk)
        yield from ep.sig_wait(self.recv_sig)
        got = None
        if rd.real:
            got = self.recv_buf.view(np.complex128).reshape(2, -1).copy()
        ep.sig_reset(self.recv_sig)
        return got


def _unr_allgather_ring(ep: UnrEndpoint, ranks: List[int], data, nbytes: int, tag: str):
    """Ring allgather over ``ranks`` using UNR control messages."""
    me = ranks.index(ep.rank)
    size = len(ranks)
    out = [None] * size
    out[me] = data
    carry, owner = data, me
    for step in range(size - 1):
        right = ranks[(me + 1) % size]
        left = ranks[(me - 1) % size]
        yield from ep.send_ctl(right, (owner, carry), tag=(tag, step), nbytes=nbytes)
        owner, carry = yield from ep.recv_ctl(left, tag=(tag, step))
        out[owner] = carry
    return out


def powerllel_unr_rank(ctx, cfg: PowerLLELConfig, unr: Unr, out: dict, spectra=None):
    """One rank of the UNR-optimized PowerLLEL (generator)."""
    rd = RankData(ctx, cfg, spectra)
    dec = rd.dec
    ep = unr.endpoint(ctx.rank)
    env = ctx.env
    dt, nu = cfg.dt, cfg.nu
    spacing = cfg.spacing
    cells = rd.cells

    # ---------------------------------------------------------------- setup
    halos = {
        "rk1": _UnrHalo(rd, ep, "rk1", 3),
        "rk2": _UnrHalo(rd, ep, "rk2", 3),
        "div": _UnrHalo(rd, ep, "div", 3),
        "corr": _UnrHalo(rd, ep, "corr", 1),
    }
    fwd = _UnrTranspose(rd, ep, forward=True, tag="fwd")
    inv = _UnrTranspose(rd, ep, forward=False, tag="inv")
    pdd_up = pdd_dn = None
    if dec.z_prev is not None:
        pdd_up = _UnrPairExchange(rd, ep, dec.z_prev, rd.pdd_boundary_bytes(), "pdd")
    if dec.z_next is not None:
        pdd_dn = _UnrPairExchange(rd, ep, dec.z_next, rd.pdd_boundary_bytes(), "pdd")
    for h in halos.values():
        yield from h.setup()
    yield from fwd.setup()
    yield from inv.setup()
    if pdd_up is not None:
        yield from pdd_up.setup()
    if pdd_dn is not None:
        yield from pdd_dn.setup()
    # Setup acts as the initial pre-synchronization (every pair talked).
    t_start = env.now

    zs_total = dec.z_start
    m = dec.nz_local

    for _step in range(cfg.steps):
        # ----------------------------------------------- velocity update
        t0 = env.now
        for substep in (1, 2):
            fields = [rd.u, rd.v, rd.w] if substep == 1 else [rd.u1, rd.v1, rd.w1]
            yield from halos["rk1" if substep == 1 else "rk2"].exchange(fields)
            yield from rd.charge(rd.cost.momentum_rhs(cells) + rd.cost.axpy(cells))
            if rd.real:
                rhs = momentum_rhs(fields[0], fields[1], fields[2], rd.forcing, nu, spacing)
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
        yield from halos["div"].exchange([rd.u, rd.v, rd.w])
        yield from rd.charge(rd.cost.div_or_grad(cells))
        rd.detail["ppe_halo_div"] += env.now - tm
        div = None
        if rd.real:
            div = divergence(rd.u, rd.v, rd.w, spacing, rd.is_bottom)

        # Forward transpose, pipelined per z-slab (Fig. 3e Pipeline 1).
        tm = env.now
        yield from fwd.begin_iteration()
        for s, (zs, zn) in enumerate(rd.slabs):
            yield from rd.charge(rd.cost.fft(cfg.nx * dec.ny_local * zn, cfg.nx))
            if rd.real:
                rd.xspec[:, :, zs : zs + zn] = np.fft.rfft(
                    div[:, :, zs : zs + zn], axis=0
                )
            yield from fwd.put_slab(s, rd.pack_fwd)
        for s, (zs, zn) in enumerate(rd.slabs):
            yield from fwd.wait_slab(s, rd.unpack_fwd)
            yield from rd.charge(rd.cost.fft(dec.nxh_local * cfg.ny * zn, cfg.ny))
            if rd.real:
                rd.yspec[:, :, zs : zs + zn] = np.fft.fft(
                    rd.yspec[:, :, zs : zs + zn], axis=1
                )

        rd.detail["ppe_fwd_transpose"] += env.now - tm

        # PDD tridiagonal in z (Fig. 3e Pipeline 2).
        tm = env.now
        yield from rd.charge(rd.cost.tridiag(rd.n_modes * m, nrhs_factor=3.0))
        sol = None
        x_tilde = v = w_vec = None
        zero_rows = None
        rhs_modes = None
        if rd.real:
            rhs_modes = rd.yspec.reshape(rd.n_modes, m)
            lam = (rd.lam_x[:, None] + rd.lam_y[None, :]).reshape(-1)
            diag = rd.z_diag[zs_total : zs_total + m][None, :] + lam[:, None]
            lower = np.broadcast_to(rd.z_lower[zs_total : zs_total + m], diag.shape).copy()
            upper = np.broadcast_to(rd.z_upper[zs_total : zs_total + m], diag.shape).copy()
            alpha = None if dec.z_prev is None else np.full(rd.n_modes, 1.0 / spacing[2] ** 2)
            gamma = None if dec.z_next is None else np.full(rd.n_modes, 1.0 / spacing[2] ** 2)
            zero_rows = np.nonzero(lam == 0.0)[0]
            rhs_local = rhs_modes.copy()
            if zero_rows.size and dec.iz == 0:
                # Pin p[0] = 0 for the singular zero mode so the local
                # factorization stays non-singular (the mode is solved
                # exactly by the gathered Thomas below).
                diag[zero_rows, 0] = 1.0
                upper[zero_rows, 0] = 0.0
            if zero_rows.size:
                rhs_local[zero_rows] = 0.0
            x_tilde, v, w_vec = pdd_local_factor(lower, diag, upper, rhs_local, alpha, gamma)
            bounds = pdd_boundary(x_tilde, v, w_vec)
            to_prev, to_next = bounds["to_prev"], bounds["to_next"]
        else:
            to_prev = to_next = None
        from_prev = from_next = None
        if pdd_up is not None:
            from_prev = yield from pdd_up.exchange(to_prev)
        if pdd_dn is not None:
            from_next = yield from pdd_dn.exchange(to_next)
        yield from rd.charge(rd.cost.tridiag(rd.n_modes * 2))
        if rd.real:
            sol = pdd_correct(x_tilde, v, w_vec, from_prev, from_next)
        # Exact zero mode via a ring allgather on the z column.
        if dec.xh_start == 0:
            if rd.real:
                zero_idx = int(zero_rows[0])
                mine = rhs_modes[zero_idx].real.copy()
            else:
                mine = None
            parts = yield from _unr_allgather_ring(
                ep, dec.col_ranks, mine, m * 8, tag="zm"
            )
            yield from rd.charge(rd.cost.tridiag(cfg.nz))
            if rd.real:
                full = np.concatenate([np.asarray(p) for p in parts])
                lower0 = rd.z_lower.copy()
                diag0 = rd.z_diag.copy()
                upper0 = rd.z_upper.copy()
                rhs0 = full.copy()
                diag0[0] = 1.0
                upper0[0] = 0.0
                rhs0[0] = 0.0
                x0 = thomas(lower0[None, :], diag0[None, :], upper0[None, :], rhs0[None, :])[0]
                sol[zero_idx] = x0[zs_total : zs_total + m]

        rd.detail["ppe_pdd"] += env.now - tm

        # Inverse transpose, pipelined (Fig. 3e Pipeline 3).
        tm = env.now
        if rd.real:
            rd.yspec[...] = sol.reshape(dec.nxh_local, cfg.ny, m)
        yield from inv.begin_iteration()
        for s, (zs, zn) in enumerate(rd.slabs):
            yield from rd.charge(rd.cost.fft(dec.nxh_local * cfg.ny * zn, cfg.ny))
            if rd.real:
                rd.yspec[:, :, zs : zs + zn] = np.fft.ifft(
                    rd.yspec[:, :, zs : zs + zn], axis=1
                )
            yield from inv.put_slab(s, rd.pack_inv)
        for s, (zs, zn) in enumerate(rd.slabs):
            yield from inv.wait_slab(s, rd.unpack_inv)
            yield from rd.charge(rd.cost.fft(cfg.nx * dec.ny_local * zn, cfg.nx))
            if rd.real:
                interior(rd.p)[:, :, zs : zs + zn] = np.fft.irfft(
                    rd.xspec[:, :, zs : zs + zn], n=cfg.nx, axis=0
                )
        rd.detail["ppe_inv_transpose"] += env.now - tm
        rd.times.ppe += env.now - t0

        # ------------------------------------------------------ correction
        t0 = env.now
        yield from halos["corr"].exchange([rd.p])
        yield from rd.charge(rd.cost.div_or_grad(cells))
        if rd.real:
            apply_pressure_correction(rd.u, rd.v, rd.w, rd.p, spacing, rd.is_top)
        rd.times.other += env.now - t0

    # Drain: wait for our last sends so the run time covers them.
    for h in halos.values():
        if h.used:
            yield from ep.sig_wait(h.send_sig)
    if fwd.used:
        yield from ep.sig_wait(fwd.send_sig)
    if inv.used:
        yield from ep.sig_wait(inv.send_sig)

    out[ctx.rank] = {
        "time": env.now - t_start,
        "phases": rd.times.as_dict(),
        "rank_data": rd,
    }
    return out[ctx.rank]
