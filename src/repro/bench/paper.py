"""The claims ledger: every table and figure of the paper's evaluation,
computed once and checked, with the design's ablations, the collectives
built on UNR and the chaos soak beside them.

The evaluation is a flat table of runs, :data:`POINTS`, each a
:class:`Point` addressed by an id such as ``fig7.th-xy.1152``.  A
:class:`Claim` is one number the evaluation states or implies: how to
read it from the points, its bound (one or two ``(op, limit)`` pairs),
the paper's value where the paper gives one, and, where the reproduction
knowingly departs from that value, a :class:`Cause`.  Claims and each
:class:`Figure`'s rows read one :class:`Points` store, which runs a
point on its first read and never again, so :func:`compute` runs only
what it reads and returns the record that ``repro paper`` prints and
diffs against the committed ``benchmarks/claims.json`` (``--write``
regenerates it and EXPERIMENTS.md's tables); ``repro chaos`` applies the
resilience claims to its record (:func:`chaos_entries`).  A claim is
NO-GO when it reads no point or its bound fails; DEVIATION(cause) when
the value lies more than :data:`TOLERANCE` from the paper's and the
claim names a cause (NO-GO when it names none); GO otherwise.  Every
measured value is a simulated quantity; host times stay out.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core import PollingConfig, max_signals, policy_for_channel
from ..interconnect import TABLE_II, Capability, RmaChannel, support_level
from ..netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from ..platforms import PLATFORMS as REGISTRY
from ..runtime import Job
from ..sim import Environment
from .latency import latency_table, unr_pingpong
from .multinic import aggregation_sweep, imbalance_sweep, pingpong_with_calc
from .powerllel_bench import FIG6_GRIDS, FIG7_SERIES, powerllel_point
from .report import REPO_ROOT, format_cell, format_size, format_table
from .resilience import resilience_bench
from .studies import collective_time, ordered_burst, striped_put

__all__ = ["CLAIMS", "CLAIMS_PATH", "EXPERIMENTS_PATH", "FIGURES", "POINTS", "TABLE1_LEVELS",
           "TABLE2_LEVELS", "TOLERANCE", "Cause", "Claim", "Point", "Points", "chaos_entries",
           "compute", "diff", "efficiency", "entries", "experiments_blocks", "figure_of",
           "format_bound", "load_record", "render_markdown", "render_text", "synthetic_channel",
           "write"]

SCHEMA = "repro.bench.paper/1"
CLAIMS_PATH = REPO_ROOT / "benchmarks" / "claims.json"
EXPERIMENTS_PATH = REPO_ROOT / "EXPERIMENTS.md"

#: relative distance from the paper's value inside which a claim
#: reproduces it; a value farther out needs a stated cause
TOLERANCE = 0.10

GO, NO_GO = "GO", "NO-GO"
OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge, ">": operator.gt,
}
PLATFORMS = ("th-xy", "th-2a", "hpc-ib", "hpc-roce")


@dataclass(frozen=True)
class Cause:
    """Why a claim departs from the paper's value (assumption / risk /
    severity)."""

    name: str
    assumption: str
    risk: str
    severity: str


@dataclass(frozen=True)
class Claim:
    """One checked number read from the points; its ``bound`` is one or two
    ``(op, limit)`` pairs that must all hold; ``paper`` is None where the paper gives no value."""

    id: str
    paper: Optional[float]
    measure: Callable[["Points"], float]
    bound: Tuple[Any, ...]
    cause: Optional[Cause] = None

    @property
    def figure(self) -> str:
        return figure_of(self.id)

    def verdict(self, value: float) -> str:
        if not all(OPS[op](value, limit) for op, limit in zip(self.bound[::2], self.bound[1::2])):
            return NO_GO
        if self.paper is None or abs(value - self.paper) <= TOLERANCE * abs(self.paper):
            return GO
        return f"DEVIATION({self.cause.name})" if self.cause else NO_GO


class Point(NamedTuple):
    """One run of the evaluation, ``driver(**kwargs)``, addressed by ``id``."""

    id: str
    driver: Callable[..., Any]
    kwargs: Dict[str, Any]


class Figure(NamedTuple):
    title: str
    headers: Tuple[str, ...]
    rows: Callable[["Points"], List[list]]


def figure_of(id: str) -> str:
    """The figure a point or claim id belongs to: the name in
    :data:`FIGURES` that the id starts with (``ext.collectives`` for
    ``ext.collectives.bcast``)."""
    return next(name for name in FIGURES if f"{id}.".startswith(f"{name}."))


# -- the points ----------------------------------------------------------

#: Table I's synthetic NICs: (custom bits, atomic add, the paper's level)
TABLE1_LEVELS = ((0, False, 0), (8, False, 1), (16, False, 1), (32, False, 2), (64, False, 3),
                 (128, False, 3), (128, True, 4))
#: Table II: each interface's level in the paper
TABLE2_LEVELS = {"glex": 3, "verbs": 2, "utofu": 1, "ugni": 2, "pami": 2, "portals": 3}
FIG4_SIZES = (8, 512, 4096, 65536, 1048576)
FIG5_SIZES = (32768, 262144, 1048576, 4194304)
#: Figure 6's legs: every platform's three, then HPC-IB's polling study: 2 cores
#: reserved, 16 compute threads (the paper could not use 17), or a tuned interval
FIG6_LEGS = {"mpi": dict(backend="mpi"), "unr": dict(backend="unr"),
             "unr_fallback": dict(backend="unr", fallback=True),
             "16_thread": dict(backend="unr", threads=16,
                               polling=PollingConfig(mode="reserved", reserved_cores=2)),
             "interval": dict(backend="unr", threads=18,
                              polling=PollingConfig(mode="interval", interval_us=20.0))}
#: Figure 6's bars as (platform, label, leg).  The polling study's
#: 18-thread busy-polling bar is HPC-IB's default, its ``unr`` leg.
FIG6_BARS = ([(q, leg, leg) for q in PLATFORMS for leg in ("mpi", "unr", "unr_fallback")]
             + [("hpc-ib", "18_thread", "unr"), ("hpc-ib", "16_thread", "16_thread"),
                ("hpc-ib", "interval", "interval")])
#: Figure 7's rows.  TH-XY stops at 1152 nodes: its 1728-node point costs
#: more host time than the rest of the ledger, and
#: benchmarks/test_paper_claims.py reads it on request.
FIG7_ROWS = {"th-2a": (12, 24, 48, 96, 192), "th-xy": (288, 576, 1152)}
#: the ablations' legs as (study, variant, point id).  The pipeline's
#: 4-slab leg is Figure 6's HPC-RoCE UNR run; the offload study is TH-XY
#: on HPC-IB's Figure 6 grid.
ABLATION_LEGS = (
    ("striping: one 4 MiB PUT, TH-XY", "1 rail", "ablation.striping.1"),
    ("striping: one 4 MiB PUT, TH-XY", "2 rails", "ablation.striping.2"),
    ("pipeline: PowerLLEL, HPC-RoCE", "1 slab", "ablation.pipeline.1"),
    ("pipeline: PowerLLEL, HPC-RoCE", "4 slabs", "fig6.hpc-roce.unr"),
    ("pipeline: PowerLLEL, HPC-RoCE", "8 slabs", "ablation.pipeline.8"),
    ("offload: PowerLLEL, TH-XY, 24 nodes", "polled (Level 3)", "ablation.offload.polled"),
    ("offload: PowerLLEL, TH-XY, 24 nodes", "atomic add (Level 4)", "ablation.offload.hw"),
    ("notification: 64 x 4 KiB PUTs", "ordered msg (Level 0)", "ablation.level0"),
    ("notification: 64 x 4 KiB PUTs", "custom bits (Level 3)", "ablation.level3"),
)
#: the collectives compared on TH-2A with 8 ranks, 8 KiB per rank (a
#: barrier moves one byte)
COLLECTIVES = ("barrier", "bcast", "allgather", "alltoall")
#: the chaos soak's replica team sizes
TEAM_SIZES = (2, 3)


def synthetic_channel(bits: int, offload: bool) -> Tuple[Job, RmaChannel]:
    """A two-node job and a channel whose four custom-bit fields are
    ``bits`` wide: Table I's synthetic NIC (``offload``: Level-4 atomic add)."""
    cap = Capability(interface=f"Synth{bits}", interconnect="synthetic", systems="-",
                     put_local=bits, put_remote=bits, get_local=bits, get_remote=bits)
    spec = ClusterSpec("t", 2, NodeSpec(cores=4, nics=2),
                       NicSpec(bandwidth_gbps=100, latency_us=1.0, atomic_offload=offload),
                       FabricSpec(routing_jitter=0.2), seed=1)
    job = Job(Cluster(Environment(), spec))
    return job, RmaChannel(job, cap)


def _policy(bits: int = 0, offload: bool = False, interface: Optional[str] = None):
    """The policy UNR derives for Table I's synthetic NIC, or for a
    Table II ``interface`` on the same two nodes."""
    job, channel = synthetic_channel(bits, offload)
    if interface is not None:
        channel = RmaChannel(job, TABLE_II[interface])
    return policy_for_channel(channel)


def _powerllel(platform: str, **kwargs) -> Dict[str, float]:
    """One PowerLLEL run's total and per-phase times (s), not its ranks' state."""
    res = powerllel_point(platform, **kwargs)
    return {"time": res["time"], **res["phases"]}


def _width(bits: int, hw: bool) -> str:
    return f"{bits}+hw" if hw else str(bits)


def _points() -> List[Point]:
    table = [Point(f"table1.{_width(b, hw)}", _policy, dict(bits=b, offload=hw))
             for b, hw, _ in TABLE1_LEVELS]
    table += [Point("table2", TABLE_II.copy, {}),
              Point("table2.utofu", _policy, dict(interface="utofu")),
              Point("table3", REGISTRY.copy, {})]
    table += [Point(f"fig4.{q}", latency_table, dict(platform=q, sizes=FIG4_SIZES, iters=10))
              for q in PLATFORMS]
    table.append(Point("fig4.th-xy.level4", unr_pingpong,
                       dict(platform="th-xy", size=8, iters=10, offload=True)))
    table += [Point("fig5.a3", aggregation_sweep, dict(platform="th-xy", sizes=FIG5_SIZES)),
              Point("fig5.b2", imbalance_sweep, dict(platform="th-xy", sizes=FIG5_SIZES))]
    table += [Point(f"fig5.b1.{key}", pingpong_with_calc,
                    dict(platform="th-xy", size=1 << 20, shared=shared, iters=24, window=4))
              for key, shared in (("solo", False), ("shared", True))]
    table += [Point(f"fig6.{q}.{leg}", _powerllel,
                    dict(FIG6_GRIDS[q], platform=q, steps=2, **FIG6_LEGS[leg]))
              for q, label, leg in FIG6_BARS if label == leg]  # not the 18-thread bar again
    table += [Point(f"fig7.{q}.{pt['nodes']}", _powerllel,
                    dict(series["grid"], **pt, platform=q, backend="unr", steps=1,
                         pipeline_slabs=2))
              for q, series in FIG7_SERIES.items() for pt in series["points"]]
    unr_run = dict(backend="unr", steps=2)
    table += [Point(f"ablation.striping.{n}", striped_put, dict(rails=n)) for n in (1, 2)]
    table += [Point(f"ablation.pipeline.{n}", _powerllel,
                    dict(FIG6_GRIDS["hpc-roce"], platform="hpc-roce", pipeline_slabs=n, **unr_run))
              for n in (1, 8)]
    table += [Point(f"ablation.offload.{leg}", _powerllel,
                    dict(FIG6_GRIDS["hpc-ib"], platform="th-xy", offload=hw, **unr_run))
              for leg, hw in (("polled", False), ("hw", True))]
    table += [Point(f"ablation.level{level}", ordered_burst, dict(bits=bits))
              for level, bits in ((0, 0), (3, 64))]
    table += [Point(f"ext.collectives.{op}.{lib}", collective_time,
                    dict(lib=lib, op=op, platform="th-2a", ranks=8,
                         chunk=1 if op == "barrier" else 8192))
              for op in COLLECTIVES for lib in ("mpi", "unr")]
    table += [Point(f"ext.resilience.t{n}", resilience_bench, dict(team_size=n))
              for n in TEAM_SIZES]
    return table


#: the evaluation, every run by id (Figure 7 out to 1728 TH-XY nodes)
POINTS = {point.id: point for point in _points()}


class Points(dict):
    """Results by point id, each fetched on its first read and kept (run,
    or read from the store ``source``): its keys are the ids read through it."""

    def __init__(self, *args: Any, source: Optional["Points"] = None) -> None:
        super().__init__(*args)
        self.source = source

    def __missing__(self, pid: str) -> Any:
        if self.source is not None:
            return self.setdefault(pid, self.source[pid])
        _, driver, kwargs = POINTS[pid]  # an unknown id: KeyError(pid)
        return self.setdefault(pid, driver(**kwargs))


# -- the figures ---------------------------------------------------------

def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def _gain(p: Points, sweep: str) -> List[float]:
    """Figure 5: the ``a3`` or ``b2`` sweep's throughput gain per size."""
    return p[f"fig5.{sweep}"]["improvement"]


def _speedup(p: Points, plat: str, leg: str = "unr") -> float:
    """Figure 6: ``leg``'s speedup over ``plat``'s MPI baseline."""
    return p[f"fig6.{plat}.mpi"]["time"] / p[f"fig6.{plat}.{leg}"]["time"]


def efficiency(p: Points, plat: str, nodes: int, key: str = "time") -> float:
    """Figure 7: the strong-scaling efficiency of ``plat``'s ``nodes``-node
    point against its first, ``(t_first / t_n) * (n_first / n)``, of the
    total time or of one phase (``key``)."""
    first = FIG7_ROWS[plat][0]
    return (p[f"fig7.{plat}.{first}"][key] / p[f"fig7.{plat}.{nodes}"][key]) * (first / nodes)


def _time(p: Points, pid: str) -> float:
    """An ablation leg's simulated time (s): a PowerLLEL run's total, or
    a burst of PUTs'."""
    value = p[pid]
    return value["time"] if isinstance(value, dict) else value


def _ratio(p: Points, leg: str, design: str) -> float:
    """How much longer an ablation leg takes than the design's choice."""
    return _time(p, leg) / _time(p, design)


def _collective(p: Points, op: str, lib: str) -> float:
    return p[f"ext.collectives.{op}.{lib}"]


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def _soak_rows(p: Points, team: int) -> List[list]:
    """The chaos soak at one team size: per platform, the degraded
    stream's first run, then the replication leg."""
    record = p[f"ext.resilience.t{team}"]
    rows = []
    for q, block in record["platforms"].items():
        run, rep = block["runs"][0], record["replication"]["platforms"][q]
        rows.append([team, q, run["degraded_ops"], run["repromotions"],
                     round(run["time_to_recover_us"]["p50"], 3), round(rep["overhead_ratio"], 3),
                     rep["crash"]["failovers"], round(rep["crash"]["ttr_us"]["p95"], 3)])
    return rows


FIGURES: Dict[str, Figure] = {
    "table1": Figure(
        "Table I: UNR support levels",
        ("level", "put-remote bits", "encoding", "max signals", "multi-channel", "polling"),
        lambda p: [[pol.level, key,
                    "ordered (p,a) msg" if pol.level == 0 else f"p:{pol.p_bits}b a:{pol.a_bits}b",
                    min(max_signals(pol), 1 << 62), _yes(pol.multi_channel),
                    _yes(pol.uses_polling)]
                   for key in (_width(b, hw) for b, hw, _ in TABLE1_LEVELS)
                   for pol in [p[f"table1.{key}"]]],
    ),
    "table2": Figure(
        "Table II: UNR support level of high-performance NICs",
        ("interface", "interconnect", "PUT local", "PUT remote", "GET local", "GET remote",
         "level"),
        lambda p: [[cap.interface, cap.interconnect]
                   + [cap.display(f) for f in ("put_local", "put_remote", "get_local",
                                               "get_remote")]
                   + [f"Level-{support_level(cap)}"] for cap in p["table2"].values()],
    ),
    "table3": Figure(
        "Table III: experiment platforms",
        ("system", "CPU", "NIC(s)", "used nodes", "UNR channel"),
        lambda p: [[f"{q.name} ({q.abbrev}, {q.deployed})", q.cpu_desc, q.nic_desc, q.max_nodes,
                    q.channel] for q in p["table3"].values()],
    ),
    "fig4": Figure(
        "Figure 4: half round-trip latency (us), UNR vs MPI-RMA, 10 iterations",
        ("platform", "size", "UNR", "fence", "PSCW", "lock"),
        lambda p: [[plat, format_size(size)]
                   + [round(p[f"fig4.{plat}"][k][i], 3) for k in ("unr", "fence", "pscw", "lock")]
                   for plat in PLATFORMS for i, size in enumerate(FIG4_SIZES)],
    ),
    "fig5": Figure(
        "Figure 5: shared-NIC throughput gain on TH-XY (%), 2 procs x 2 NICs",
        ("size", "(a3) balanced", "(b2) calc ~ N(T, 0.3T)"),
        lambda p: [[format_size(s), round(100 * a, 3), round(100 * b, 3)]
                   for s, a, b in zip(FIG5_SIZES, _gain(p, "a3"), _gain(p, "b2"))],
    ),
    "fig6": Figure(
        "Figure 6: PowerLLEL (simulated ms) and speedup over the MPI baseline, 2 steps",
        ("platform", "variant", "total", "vel_update", "ppe", "speedup"),
        lambda p: [[q, label, _ms(r["time"]), _ms(r["vel_update"]), _ms(r["ppe"]),
                    round(_speedup(p, q, leg), 3)]
                   for q, label, leg in FIG6_BARS for r in [p[f"fig6.{q}.{leg}"]]],
    ),
    "fig7": Figure(
        "Figure 7: PowerLLEL strong scaling (simulated ms), UNR, 1 step",
        ("platform", "nodes", "total", "vel_update", "ppe", "efficiency"),
        lambda p: [[q, n, _ms(r["time"]), _ms(r["vel_update"]), _ms(r["ppe"]),
                    round(efficiency(p, q, n), 3)]
                   for q, nodes in FIG7_ROWS.items() for n in nodes
                   for r in [p[f"fig7.{q}.{n}"]]],
    ),
    "ablation": Figure(
        "Ablations: each design choice against its alternative (simulated us)",
        ("study", "variant", "time"),
        lambda p: [[study, variant, _us(_time(p, pid))] for study, variant, pid in ABLATION_LEGS],
    ),
    "ext.collectives": Figure(
        "Extension: UNR collectives vs MPI's (TH-2A, 8 ranks, 8 KiB; simulated us per call)",
        ("op", "MPI", "UNR", "speedup"),
        lambda p: [[op, _us(_collective(p, op, "mpi")), _us(_collective(p, op, "unr")),
                    round(_collective(p, op, "mpi") / _collective(p, op, "unr"), 3)]
                   for op in COLLECTIVES],
    ),
    "ext.resilience": Figure(
        "Extension: chaos soak, endpoint down then a replica's node crash (repro chaos)",
        ("team", "platform", "degraded ops", "re-promotions", "recovery p50 us",
         "replication overhead", "failovers", "failover p95 us"),
        lambda p: [row for team in TEAM_SIZES for row in _soak_rows(p, team)],
    ),
}


# -- the claims ----------------------------------------------------------

TRANSPOSE = Cause(
    "transpose-cost",
    "the PowerLLEL cost model (repro/powerllel/costs.py) makes the pencil transposes "
    "bandwidth-bound on the single-rail TH-2A and HPC-IB, so removing notification "
    "messages and pipelining recover less time there",
    "UNR's PowerLLEL gain on TH-2A and HPC-IB, the polling-thread study included, "
    "undershoots the paper's 20-39 %; it stays positive and the configurations keep "
    "the paper's order", "medium")
POLLING = Cause(
    "polling-dispatch",
    "UNR's polling thread dispatches a completion 0.25 us after it lands (half of "
    "core.polling.POLL_COST_US); the authors' verbs polling path likely cost more",
    "PSCW never beats UNR at 8 B, where the paper saw it close to or ahead of UNR on "
    "IB/RoCE; PSCW is still the closest MPI-RMA scheme", "low")
PPE = Cause(
    "ppe-scaling",
    "the PPE solver's transposes and PDD reduction carry per-message costs that do not "
    "shrink with the pencils, so they dominate at 192 nodes",
    "TH-2A efficiency falls faster than the paper's from 12 to 192 nodes; the decay "
    "stays monotone and the PPE stays the bottleneck", "low")
FALLBACK = Cause(
    "fallback-rendezvous",
    "TH-2A's dated MPI is modelled as a rendezvous bandwidth penalty on the fallback "
    "channel; the MPI-internal pathology behind the paper's number is modelled coarsely",
    "the fallback slows PowerLLEL on TH-2A by about half the paper's 61 %; the "
    "direction (it hurts on TH-2A, helps on TH-XY) holds", "medium")
IMBALANCE = Cause(
    "imbalance-window",
    "the imbalance sweep keeps 4 ping-pongs in flight per pair over 12 seeded "
    "iterations; the paper does not state its window or count",
    "sharing absorbs less of the N(T, 0.3T) imbalance at 4 MiB than the paper's ~10 %; "
    "the gain stays positive and bounded", "low")
CAUSES = (TRANSPOSE, POLLING, PPE, FALLBACK, IMBALANCE)


def _min_ratio(table: Dict[str, List[float]], num: str, den: str) -> float:
    return min(a / b for a, b in zip(table[num], table[den]))


def _pscw_over_unr(p: Points, plat: str) -> float:
    return p[f"fig4.{plat}"]["pscw"][0] / p[f"fig4.{plat}"]["unr"][0]


#: Table III's row values: (link Gbps, rails per node, nodes used)
TABLE3_ROWS = {"th-xy": (200, 2, 1728), "th-2a": (114, 1, 192), "hpc-ib": (100, 1, 24),
               "hpc-roce": (25, 1, 12)}


def _rails(platform) -> int:
    """Rails per node of a two-node cluster built from ``platform``'s row."""
    return platform.make_cluster(Environment(), n_nodes=2).node(0).n_rails


def _resilience_claims(team: int, replication: bool = True) -> List[Claim]:
    """The chaos soak's verdicts at one replica team size, read from its
    record (point ``ext.resilience.t<team>``): every message intact and
    every replay identical, on every platform the endpoint-down window
    forced the fallback lane, and (``replication``) the replication leg's
    crash stopped a world on every platform, cheaply and quickly."""
    pid = f"ext.resilience.t{team}"

    def rep(p: Points) -> Dict[str, Any]:
        return p[pid]["replication"]

    claims = [
        Claim(f"{pid}.correct", None, lambda p: p[pid]["correct"], ("==", 1)),
        Claim(f"{pid}.identical", None, lambda p: p[pid]["identical"], ("==", 1)),
        Claim(f"{pid}.degraded", None,
              lambda p: all(b["degraded"] for b in p[pid]["platforms"].values()), ("==", 1)),
    ]
    if replication:
        # The failover bound is 5x the slowest platform's p95 (heartbeats
        # stop a world at ~95-98 us on th-xy and hpc-roce, a contained
        # peer-dead error at ~39-43 us on th-2a and hpc-ib): only a stop
        # stalled for whole extra heartbeat rounds breaks it.  Replica
        # worlds share only the heartbeats (1.000-1.003x; shadowing every
        # op from the primaries read up to 3.698x).
        claims += [
            Claim(f"{pid}.failovers", None,
                  lambda p: min(b["crash"]["failovers"] for b in rep(p)["platforms"].values()),
                  (">=", 1)),
            Claim(f"{pid}.overhead", None, lambda p: rep(p)["overhead_ratio"], ("<=", 1.5)),
            Claim(f"{pid}.ttr-p95-us", None, lambda p: rep(p)["p95_failover_ttr_us"],
                  ("<=", 500.0)),
        ]
    return claims


def _claims() -> Tuple[Claim, ...]:
    claims: List[Claim] = []
    add = claims.append
    # Table I: the level each width classifies to, and what it implies.
    for bits, hw, level in TABLE1_LEVELS:
        key = _width(bits, hw)
        add(Claim(f"table1.bits-{key}.level", level, lambda p, k=key: p[f"table1.{k}"].level,
                  ("==", level)))
    add(Claim("table1.level-2.multi-channel", 0, lambda p: p["table1.32"].multi_channel, ("==", 0)))
    add(Claim("table1.level-3.multi-channel", 1, lambda p: p["table1.64"].multi_channel, ("==", 1)))
    add(Claim("table1.level-4.polling", 0, lambda p: p["table1.128+hw"].uses_polling, ("==", 0)))
    # Table II: every interface's level, and no other interface.
    for name, level in TABLE2_LEVELS.items():
        add(Claim(f"table2.{name}.level", level, lambda p, n=name: support_level(p["table2"][n]),
                  ("==", level)))
    add(Claim("table2.interfaces", len(TABLE2_LEVELS), lambda p: len(p["table2"]),
              ("==", len(TABLE2_LEVELS))))
    add(Claim("table2.utofu.max-signals", 256, lambda p: max_signals(p["table2.utofu"]),
              ("==", 256)))
    add(Claim("table3.systems", 4, lambda p: len(p["table3"]), ("==", 4)))
    for q, (gbps, rails, nodes) in TABLE3_ROWS.items():
        add(Claim(f"table3.{q}.link-gbps", gbps, lambda p, q=q: p["table3"][q].nic.bandwidth_gbps,
                  ("==", gbps)))
        add(Claim(f"table3.{q}.rails", rails, lambda p, q=q: _rails(p["table3"][q]),
                  ("==", rails)))
        add(Claim(f"table3.{q}.nodes", nodes, lambda p, q=q: p["table3"][q].max_nodes,
                  ("==", nodes)))
    add(Claim("table3.hpc-ib.cores", 18, lambda p: p["table3"]["hpc-ib"].node.cores, ("==", 18)))
    # Figure 4: UNR beats fence and lock at every size; PSCW is the best
    # MPI-RMA scheme at 8 B; at 1 MiB only TH-XY's second rail keeps UNR ahead.
    for q in PLATFORMS:
        add(Claim(f"fig4.{q}.fence-over-unr", None,
                  lambda p, q=q: _min_ratio(p[f"fig4.{q}"], "fence", "unr"), (">", 1.0)))
        add(Claim(f"fig4.{q}.lock-over-unr", None,
                  lambda p, q=q: _min_ratio(p[f"fig4.{q}"], "lock", "unr"), (">", 1.0)))
        add(Claim(f"fig4.{q}.fence-over-pscw-8b", None,
                  lambda p, q=q: p[f"fig4.{q}"]["fence"][0] / p[f"fig4.{q}"]["pscw"][0],
                  (">=", 1.0)))
        add(Claim(f"fig4.{q}.fence-over-unr-1m", None,
                  lambda p, q=q: p[f"fig4.{q}"]["fence"][-1] / p[f"fig4.{q}"]["unr"][-1],
                  (">", 1.5) if q == "th-xy" else ("<", 2.0)))
    add(Claim("fig4.hpc-ib.pscw-over-unr-8b", 1.0, lambda p: _pscw_over_unr(p, "hpc-ib"),
              ("<", 3.0), POLLING))
    add(Claim("fig4.pscw-gap.hpc-ib-over-th-2a", None,
              lambda p: _pscw_over_unr(p, "hpc-ib") / _pscw_over_unr(p, "th-2a"), ("<", 1.0)))
    add(Claim("fig4.th-xy.level4-over-polled-8b", None,
              lambda p: p["fig4.th-xy.level4"] * 1e6 / p["fig4.th-xy"]["unr"][0], ("<=", 1.0)))
    # Figure 5: (a3) the gain grows with size toward the 1/3 bound; (b1)
    # a saturated pipeline gains nothing; (b2) sharing absorbs imbalance.
    add(Claim("fig5.a3.min-gain", None, lambda p: min(_gain(p, "a3")), (">", -0.02)))
    add(Claim("fig5.a3.gain-4m", 0.333, lambda p: _gain(p, "a3")[-1], (">", 0.10)))
    add(Claim("fig5.a3.max-gain", None, lambda p: max(_gain(p, "a3")), ("<", 0.40)))
    add(Claim("fig5.a3.growth", None, lambda p: _gain(p, "a3")[-1] - _gain(p, "a3")[0],
              (">=", 0.0)))
    add(Claim("fig5.b1.gain-1m", None,
              lambda p: abs(p["fig5.b1.shared"] / p["fig5.b1.solo"] - 1.0), ("<", 0.10)))
    add(Claim("fig5.b2.gain-4m", 0.10, lambda p: _gain(p, "b2")[-1], (">", 0.03, "<", 0.45),
              IMBALANCE))
    # Figure 6: UNR speeds PowerLLEL up everywhere, most on TH-XY; the
    # fallback helps TH-XY and hurts TH-2A; reserved cores beat busy polling.
    for q, paper in (("th-xy", 1.36), ("th-2a", 1.29), ("hpc-ib", 1.20), ("hpc-roce", 1.29)):
        add(Claim(f"fig6.{q}.unr", paper, lambda p, q=q: _speedup(p, q), (">", 1.0, "<", 1.8),
                  TRANSPOSE if q in ("th-2a", "hpc-ib") else None))
    add(Claim("fig6.th-xy.fallback", 1.20, lambda p: _speedup(p, "th-xy", "unr_fallback"),
              (">", 1.1)))
    add(Claim("fig6.th-2a.fallback", 0.39, lambda p: _speedup(p, "th-2a", "unr_fallback"),
              ("<", 0.85), FALLBACK))
    add(Claim("fig6.th-xy.largest-gain", None,
              lambda p: _speedup(p, "th-xy") / max(_speedup(p, q) for q in PLATFORMS[1:]),
              (">=", 1.0)))
    for leg, name, paper in (("16_thread", "reserved-16", 1.31), ("interval", "interval", None)):
        add(Claim(f"fig6.hpc-ib.{name}", paper, lambda p, leg=leg: _speedup(p, "hpc-ib", leg),
                  (">", 1.0), TRANSPOSE if paper else None))
    add(Claim("fig6.hpc-ib.reserved-over-busy", round(1.31 / 1.20, 3),
              lambda p: _speedup(p, "hpc-ib", "16_thread") / _speedup(p, "hpc-ib"), (">=", 1.0)))
    # Figure 7: high efficiency over the node range, decaying; the
    # velocity update scales near-linearly and the PPE is the bottleneck.
    first, last = FIG7_ROWS["th-2a"][0], FIG7_ROWS["th-2a"][-1]
    add(Claim("fig7.th-2a.efficiency", 0.95, lambda p: efficiency(p, "th-2a", last),
              (">", 0.75), PPE))
    add(Claim("fig7.th-2a.efficiency-decay", None,
              lambda p: efficiency(p, "th-2a", last) - efficiency(p, "th-2a", first),
              ("<=", 1e-9)))
    add(Claim("fig7.th-2a.vel-over-ppe", None,
              lambda p: efficiency(p, "th-2a", last, "vel_update")
              / efficiency(p, "th-2a", last, "ppe"), (">", 1.0)))
    add(Claim("fig7.th-2a.vel-efficiency", None,
              lambda p: efficiency(p, "th-2a", last, "vel_update"), (">", 0.8)))
    add(Claim("fig7.th-xy.efficiency", 0.85, lambda p: efficiency(p, "th-xy", 1152), (">", 0.70)))
    # Ablations: two rails halve a large PUT; pipelining hides transpose
    # time; the NIC's atomic add frees the polling core; Level 0's extra
    # ordered message per PUT slows a burst.
    add(Claim("ablation.striping.2-rails", None,
              lambda p: _ratio(p, "ablation.striping.1", "ablation.striping.2"),
              (">", 1.6, "<", 2.2)))
    add(Claim("ablation.pipeline.1-over-4-slabs", None,
              lambda p: _ratio(p, "ablation.pipeline.1", "fig6.hpc-roce.unr"), (">", 1.0)))
    add(Claim("ablation.pipeline.8-over-4-slabs", None,
              lambda p: _ratio(p, "ablation.pipeline.8", "fig6.hpc-roce.unr"), ("<=", 1.0)))
    add(Claim("ablation.offload.polled-over-hw", None,
              lambda p: _ratio(p, "ablation.offload.polled", "ablation.offload.hw"), (">=", 1.0)))
    add(Claim("ablation.level0-over-level3", None,
              lambda p: _ratio(p, "ablation.level0", "ablation.level3"), (">", 1.2)))
    # Collectives on notified PUTs beat MPI's: no matching, no rendezvous.
    for op in COLLECTIVES:
        add(Claim(f"ext.collectives.{op}", None,
                  lambda p, op=op: _collective(p, op, "mpi") / _collective(p, op, "unr"),
                  (">", 1.2)))
    for team in TEAM_SIZES:
        claims += _resilience_claims(team)
    return tuple(claims)


CLAIMS = _claims()


# -- the record ----------------------------------------------------------

def _entry(claim: Claim, p: Points) -> Dict[str, Any]:
    reads = Points(source=p)  # a claim that reads no point cannot fail: NO-GO
    value = float(claim.measure(reads))
    return {"id": claim.id, "paper": claim.paper, "measured": value,
            "bound": list(claim.bound), "verdict": claim.verdict(value) if reads else NO_GO}


def compute(only: Optional[str] = None, points: Optional[Points] = None) -> Dict[str, Any]:
    """The record: per figure its table, and every claim with its
    measured value and verdict, read from ``points`` (a fresh store by
    default).  ``only`` keeps one figure, or one claim id, whose figure
    then holds that claim and no table."""
    p = Points() if points is None else points
    figures: Dict[str, Any] = {}
    for name, fig in FIGURES.items():
        picked = [c for c in CLAIMS if c.figure == name and only in (None, name, c.id)]
        if not picked:
            continue
        entry = figures[name] = {"title": fig.title}
        if only in (None, name):
            entry.update(headers=list(fig.headers), rows=fig.rows(p))
        entry["claims"] = [_entry(claim, p) for claim in picked]
    record = {"schema": SCHEMA, "tolerance": TOLERANCE,
              "causes": {c.name: {"assumption": c.assumption, "risk": c.risk,
                                  "severity": c.severity} for c in CAUSES},
              "figures": figures}
    return json.loads(json.dumps(record))  # exactly what claims.json holds


def chaos_entries(record: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The resilience claims applied to one ``repro chaos`` record, each
    with its measured value and verdict; a record without the
    replication leg answers only the claims that do not read it."""
    team = record["params"]["team_size"]
    p = Points({f"ext.resilience.t{team}": record})
    return [_entry(c, p) for c in _resilience_claims(team, record["replication"] is not None)]


def entries(record: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every claim of ``record``, in ledger order."""
    return [c for fig in record["figures"].values() for c in fig["claims"]]


def load_record() -> Dict[str, Any]:
    """The committed record, ``benchmarks/claims.json``."""
    record = json.loads(CLAIMS_PATH.read_text(encoding="utf-8"))
    if record.get("schema") != SCHEMA:
        raise ValueError(f"{CLAIMS_PATH}: schema must be {SCHEMA!r}, "
                         f"got {record.get('schema')!r}")
    return record


def _outcome(entry: Optional[Dict]) -> str:
    return "nothing" if entry is None else f"{entry['measured']!r} {entry['verdict']}"


def _drift(cid: str, now: Optional[Dict], was: Optional[Dict]) -> List[str]:
    """One line per field of claim ``cid`` that differs, or one line
    when a side lacks the claim."""
    if now is None or was is None:
        return [f"{cid}: measured {_outcome(now)}, committed {_outcome(was)}"]
    return [f"{cid}: {key} {now.get(key)!r} != committed {was.get(key)!r}"
            for key in dict.fromkeys([*now, *was]) if now.get(key) != was.get(key)]


def diff(record: Dict[str, Any], committed: Dict[str, Any]) -> List[str]:
    """What in ``record`` differs from ``committed``, over the figures
    ``record`` covers, or the one claim it holds (empty: the record
    reproduces)."""
    problems = [f"{key}: differs from the committed record"
                for key in ("tolerance", "causes") if record[key] != committed.get(key)]
    for name, fig in record["figures"].items():
        old = committed["figures"].get(name, {"claims": []})
        if any(old.get(key) != fig[key] for key in ("title", "headers", "rows") if key in fig):
            problems.append(f"{name}: table differs from the committed one")
        was = {c["id"]: c for c in old["claims"]}
        now = {c["id"]: c for c in fig["claims"]}
        gone = sorted(was.keys() - now.keys()) if "rows" in fig else []  # not one claim's run
        for cid in [*now, *gone]:
            if now.get(cid) != was.get(cid):
                problems += _drift(cid, now.get(cid), was.get(cid))
    return problems


def format_bound(entry: Dict) -> str:
    """A record entry's bound as text: ``> 1, < 1.8``."""
    return ", ".join(f"{op} {lim:g}" for op, lim in zip(entry["bound"][::2], entry["bound"][1::2]))


def render_text(record: Dict[str, Any]) -> str:
    """The tables and verdicts ``repro paper`` prints."""
    out = []
    for fig in record["figures"].values():
        out.append(fig["title"])
        if "rows" in fig:
            out.append(format_table(fig["headers"], fig["rows"]))
        for c in fig["claims"]:
            paper = "" if c["paper"] is None else f"paper {c['paper']:g}"
            out.append(f"  {c['id']:34s} {c['measured']:>9.4g} {format_bound(c):14s} "
                       f"{paper:11s} {c['verdict']}")
        out.append("")
    verdicts = [c["verdict"] for c in entries(record)]
    n_go, n_no_go = verdicts.count(GO), verdicts.count(NO_GO)
    out.append(f"paper: {len(verdicts)} claims: {n_go} GO, "
               f"{len(verdicts) - n_go - n_no_go} DEVIATION, {n_no_go} NO-GO")
    return "\n".join(out)


def _md_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    return ["| " + " | ".join(cells) + " |" for cells in [headers, ["---"] * len(headers), *rows]]


def render_markdown(record: Dict[str, Any], block: str) -> str:
    """One generated block of EXPERIMENTS.md: a figure's table and
    claims, or (``"causes"``) the stated causes of the deviations."""
    if block == "causes":
        rows = [[f"`{name}`", ", ".join(f"`{c['id']}`" for c in entries(record)
                                        if c["verdict"] == f"DEVIATION({name})") or "—",
                 cause["assumption"], cause["risk"], cause["severity"]]
                for name, cause in record["causes"].items()]
        lines = _md_table(["cause", "claims", "assumption", "risk", "severity"], rows)
    else:
        fig = record["figures"][block]
        claims = [[f"`{c['id']}`", "—" if c["paper"] is None else f"{c['paper']:g}",
                   f"{c['measured']:.4g}", format_bound(c), c["verdict"]] for c in fig["claims"]]
        lines = [f"*{fig['title']}*", "",
                 *_md_table(fig["headers"], [[format_cell(x) for x in r] for r in fig["rows"]]),
                 "", *_md_table(["claim", "paper", "measured", "bound", "verdict"], claims)]
    return "\n".join(lines) + "\n"


_BLOCK = re.compile(r"(<!-- paper:([\w.-]+) -->\n)(.*?)(<!-- /paper:\2 -->)", re.S)


def experiments_blocks(text: str) -> Dict[str, str]:
    """EXPERIMENTS.md's generated blocks, by name."""
    return {m.group(2): m.group(3) for m in _BLOCK.finditer(text)}


def write(record: Dict[str, Any]) -> None:
    """Merge ``record`` into the committed one (a run of one figure
    replaces only that figure), write it to claims.json and regenerate
    EXPERIMENTS.md's blocks from it."""
    if CLAIMS_PATH.is_file():
        figures = {**load_record()["figures"], **record["figures"]}
        record = dict(record, figures={n: figures[n] for n in FIGURES if n in figures})
    CLAIMS_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    blocks = {name: render_markdown(record, name) for name in [*record["figures"], "causes"]}
    text = _BLOCK.sub(lambda m: m.group(1) + blocks.get(m.group(2), m.group(3)) + m.group(4),
                      EXPERIMENTS_PATH.read_text(encoding="utf-8"))
    EXPERIMENTS_PATH.write_text(text, encoding="utf-8")
