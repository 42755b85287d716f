"""Figure 6/7 drivers: PowerLLEL on the four platforms.

Figure 6 — per-platform speedup of UNR over the MPI baseline, the
UNR-fallback channel, and the polling-thread configurations on HPC-IB.
Figure 7 — strong scaling on TH-2A (12→192 nodes) and TH-XY
(288→1728 nodes) with the velocity-update / PPE time breakdown.

Runs use ``mode='model'`` (virtual buffers + cost model): message sizes
and compute charges come from the configured grid, so the timing is
what a real run of that grid would see on the simulated hardware.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import PollingConfig, Unr
from ..interconnect import MpiFallbackChannel
from ..platforms import get_platform, make_job
from ..powerllel import PowerLLELConfig, run_powerllel

__all__ = ["FIG6_GRIDS", "FIG7_SERIES", "powerllel_point"]

#: Per-platform grids "tailored to fit within the memory constraints of
#: each system" (paper §VI-C), scaled to our node counts.
FIG6_GRIDS = {
    "th-xy": dict(nx=1152, ny=1152, nz=864, nodes=48, py=8, pz=6),
    "th-2a": dict(nx=768, ny=768, nz=576, nodes=48, py=8, pz=6),
    "hpc-ib": dict(nx=576, ny=576, nz=432, nodes=24, py=6, pz=4),
    "hpc-roce": dict(nx=384, ny=384, nz=288, nodes=12, py=4, pz=3),
}


def powerllel_point(
    platform: str,
    *,
    nodes: int,
    py: int,
    pz: int,
    nx: int,
    ny: int,
    nz: int,
    backend: str = "mpi",
    fallback: bool = False,
    polling: Optional[PollingConfig] = None,
    threads: Optional[int] = None,
    steps: int = 2,
    pipeline_slabs: int = 4,
    offload: bool = False,
    seed: int = 0xC0FFEE,
    faults: Optional[str] = None,
    fault_seed: Optional[int] = None,
    observe: bool = False,
    profiler=None,
) -> Dict:
    """One PowerLLEL run on ``platform``; returns time + phase breakdown.

    ``faults`` is an optional :meth:`~repro.netsim.faults.FaultSpec.parse`
    string; when set, the cluster's NICs are wrapped in a seeded fault
    injector and the UNR backend arms its reliability layer.
    ``observe=True`` traces the run through :mod:`repro.obs` (passively;
    the reported times are unchanged) and adds a ``"recorder"`` key to
    the result.  ``profiler`` (a :class:`repro.obs.HostProfiler`) arms
    host-time attribution — also passive on the wire.  ``offload``
    gives the NICs the hardware atomic add (Level 4: no polling thread).
    """
    plat = get_platform(platform)
    job = make_job(platform, nodes, offload=offload, seed=seed)
    fault_spec = None
    if faults:
        from ..netsim import FaultInjector, FaultSpec

        fault_spec = FaultSpec.parse(faults, seed=fault_seed)
        FaultInjector.attach(job.cluster, fault_spec)
    rec = None
    if observe:
        from ..obs import Recorder

        # Attached before the run so the MPI substrate and collectives
        # see cluster.obs from the first message on.
        rec = Recorder.attach(job.cluster)
    if profiler is not None:
        profiler.attach(job.cluster, profiler)
    cfg = PowerLLELConfig(
        nx=nx, ny=ny, nz=nz, py=py, pz=pz, steps=steps, mode="model",
        pipeline_slabs=pipeline_slabs, threads=threads, lengths=(1.0, 1.0, 8.0),
    )
    if backend == "mpi":
        res = run_powerllel(job, cfg, backend="mpi", mpi_config=plat.mpi)
        if rec is not None:
            res["recorder"] = rec
        return res
    unr_channel = plat.channel
    unr_kwargs = {}
    if fault_spec is not None and not fault_spec.is_noop:
        unr_kwargs["reliability"] = True
    if fallback:
        unr = Unr(job, MpiFallbackChannel(job, plat.fallback), polling=polling,
                  observe=rec, **unr_kwargs)
    else:
        unr = Unr(job, unr_channel, polling=polling, observe=rec, **unr_kwargs)
    res = run_powerllel(job, cfg, backend="unr", unr=unr)
    if rec is not None:
        res["recorder"] = rec
    return res


#: Strong-scaling series (node counts scaled to keep run times sane:
#: same 16x ratio as the paper's 12→192 and 6x ratio for 288→1728).
FIG7_SERIES = {
    "th-2a": {
        "grid": dict(nx=768, ny=768, nz=576),
        "points": [
            dict(nodes=12, py=4, pz=3),
            dict(nodes=24, py=6, pz=4),
            dict(nodes=48, py=8, pz=6),
            dict(nodes=96, py=12, pz=8),
            dict(nodes=192, py=16, pz=12),
        ],
    },
    "th-xy": {
        "grid": dict(nx=2880, ny=2880, nz=2160),
        "points": [
            dict(nodes=288, py=24, pz=12),
            dict(nodes=576, py=24, pz=24),
            dict(nodes=1152, py=48, pz=24),
            dict(nodes=1728, py=48, pz=36),
        ],
    },
}
