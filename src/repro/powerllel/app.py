"""PowerLLEL run orchestration: build the job, run a backend, report.

``run_powerllel`` is the single entry point used by the integration
tests, the examples and the Figure 6/7 benchmarks.  It runs the chosen
backend on a job, aggregates the per-rank phase breakdowns and (in real
mode) computes correctness checks (max divergence, gathered fields).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core import PollingConfig, Unr
from ..mpi import MpiConfig, MpiWorld
from ..runtime import Job, run_job
from .backend_mpi import powerllel_mpi_rank
from .backend_unr import powerllel_unr_rank
from .numerics import divergence, interior
from .state import PowerLLELConfig, shared_spectra

__all__ = ["run_powerllel", "gather_fields", "max_divergence", "PowerLLELConfig"]


def run_powerllel(
    job: Job,
    cfg: PowerLLELConfig,
    backend: str = "mpi",
    *,
    world: Optional[MpiWorld] = None,
    unr: Optional[Unr] = None,
    mpi_config: Optional[MpiConfig] = None,
    channel: str = "glex",
    polling: Optional[PollingConfig] = None,
    unr_kwargs: Optional[dict] = None,
) -> Dict:
    """Run PowerLLEL on ``job``; returns timings + per-rank state.

    ``backend`` is ``'mpi'`` (baseline) or ``'unr'``.  Library objects
    can be passed in (e.g. a pre-configured :class:`Unr`); otherwise
    they are constructed from ``mpi_config`` / ``channel`` / ``polling``.
    """
    if cfg.n_ranks != job.n_ranks:
        raise ValueError(
            f"config wants {cfg.n_ranks} ranks, job has {job.n_ranks}"
        )
    out: Dict[int, dict] = {}
    spectra = shared_spectra(cfg)  # one set for the run, not one per rank
    if backend == "mpi":
        world = world or MpiWorld(job, mpi_config)
        run_job(job, powerllel_mpi_rank, cfg, world, out, spectra)
    elif backend == "unr":
        if unr is None:
            unr = Unr(job, channel, polling=polling, **(unr_kwargs or {}))
        run_job(job, powerllel_unr_rank, cfg, unr, out, spectra)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    times = [out[r]["time"] for r in sorted(out)]
    phases = {
        key: max(out[r]["phases"][key] for r in out)
        for key in ("vel_update", "ppe", "other", "total")
    }
    result = {
        "backend": backend,
        "time": max(times),
        "time_per_step": max(times) / cfg.steps,
        "phases": phases,
        "ranks": out,
        "cfg": cfg,
    }
    if cfg.mode == "real":
        result["max_divergence"] = max_divergence(out, cfg)
    if backend == "unr" and unr is not None:
        result["unr_stats"] = dict(unr.stats)
    return result


def gather_fields(out: Dict[int, dict], cfg: PowerLLELConfig) -> Dict[str, np.ndarray]:
    """Assemble the global u/v/w/p fields from per-rank state (real mode)."""
    fields = {}
    for name in ("u", "v", "w", "p"):
        full = np.zeros((cfg.nx, cfg.ny, cfg.nz))
        for r, info in out.items():
            rd = info["rank_data"]
            if not rd.real:
                raise ValueError("gather_fields requires mode='real'")
            dec = rd.dec
            ys, zs = dec.y_start, dec.z_start
            local = interior(getattr(rd, name))
            full[:, ys : ys + dec.ny_local, zs : zs + dec.nz_local] = local
        fields[name] = full
    return fields


def max_divergence(out: Dict[int, dict], cfg: PowerLLELConfig) -> float:
    """Global max |div(u)| computed from the gathered fields."""
    f = gather_fields(out, cfg)
    from .numerics import alloc_field, fill_wall_ghosts

    gh = {}
    for name in ("u", "v", "w"):
        g = alloc_field(cfg.nx, cfg.ny, cfg.nz)
        interior(g)[...] = f[name]
        g[:, 0, :] = g[:, -2, :]
        g[:, -1, :] = g[:, 1, :]
        fill_wall_ghosts(g, True, True)
        gh[name] = g
    div = divergence(gh["u"], gh["v"], gh["w"], cfg.spacing, is_bottom=True)
    return float(np.abs(div).max())
