"""The claims ledger: every table and figure of the paper's evaluation,
computed once and checked.

A :class:`Claim` is one number the evaluation states or implies: how to
read it from its figure's points, the one bound it must meet, the
paper's value where the paper gives one, and, where the reproduction
knowingly departs from that value, a :class:`Cause`.  :func:`compute`
runs each figure's driver once and returns the record that ``repro
paper`` prints and diffs against the committed ``benchmarks/claims.json``
(``--write`` regenerates it and EXPERIMENTS.md's tables).  A claim is
NO-GO when its bound fails; DEVIATION(cause) when the bound holds, the
value lies more than :data:`TOLERANCE` from the paper's and the claim
names a cause (NO-GO when it names none); GO otherwise.  Every measured
value is a simulated quantity; host times stay out.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core import max_signals, policy_for_channel
from ..interconnect import TABLE_II, Capability, RmaChannel, support_level
from ..netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from ..platforms import PLATFORMS as REGISTRY
from ..runtime import Job
from ..sim import Environment
from .latency import latency_table, unr_pingpong
from .multinic import aggregation_sweep, imbalance_sweep, pingpong_with_calc
from .powerllel_bench import fig6_platform, fig6_polling_study, fig7_scaling
from .report import REPO_ROOT, format_cell, format_size, format_table

__all__ = ["CLAIMS", "CLAIMS_PATH", "EXPERIMENTS_PATH", "FIGURES", "TABLE1_LEVELS",
           "TABLE2_LEVELS", "TOLERANCE", "Cause", "Claim", "compute", "diff", "entries",
           "experiments_blocks", "load_record", "render_markdown", "render_text",
           "synthetic_channel", "write"]

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
    """One checked number; ``paper`` is None where the paper states only
    the ordering the bound checks."""

    id: str
    paper: Optional[float]
    measure: Callable[[Any], float]
    bound: Tuple[str, float]
    cause: Optional[Cause] = None

    @property
    def figure(self) -> str:
        return self.id.split(".", 1)[0]

    def verdict(self, value: float) -> str:
        op, limit = self.bound
        if not OPS[op](value, limit):
            return NO_GO
        if self.paper is None or abs(value - self.paper) <= TOLERANCE * abs(self.paper):
            return GO
        return f"DEVIATION({self.cause.name})" if self.cause else NO_GO


class Figure(NamedTuple):
    title: str
    headers: Tuple[str, ...]
    run: Callable[[], Any]  # the figure's points, computed once
    rows: Callable[[Any], List[list]]


# -- the figures ---------------------------------------------------------

#: Table I's synthetic NICs: (custom bits, atomic add, the paper's level)
TABLE1_LEVELS = ((0, False, 0), (8, False, 1), (16, False, 1), (32, False, 2), (64, False, 3),
                 (128, False, 3), (128, True, 4))
#: Table II: each interface's level in the paper
TABLE2_LEVELS = {"glex": 3, "verbs": 2, "utofu": 1, "ugni": 2, "pami": 2, "portals": 3}
FIG4_SIZES = (8, 512, 4096, 65536, 1048576)
FIG5_SIZES = (32768, 262144, 1048576, 4194304)


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


def _width(bits: int, hw: bool) -> str:
    return f"{bits}+hw" if hw else str(bits)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def _fig4() -> Dict[str, Any]:
    points: Dict[str, Any] = {plat: latency_table(plat, FIG4_SIZES, 10) for plat in PLATFORMS}
    points["th-xy+hw"] = unr_pingpong("th-xy", 8, iters=10, offload=True) * 1e6
    return points


def _fig5() -> Dict[str, Any]:
    solo, shared = (pingpong_with_calc("th-xy", 1 << 20, shared=s, iters=24, window=4)
                    for s in (False, True))
    return {"a3": aggregation_sweep("th-xy", FIG5_SIZES, 12)["improvement"],
            "b2": imbalance_sweep("th-xy", FIG5_SIZES, 12, 0.3)["improvement"],
            "b1": shared / solo - 1.0}


def _fig6() -> Dict[str, Any]:
    points = {plat: fig6_platform(plat, steps=2) for plat in PLATFORMS}
    points["polling"] = fig6_polling_study(steps=2)  # on hpc-ib
    return points


def _fig6_rows(p: Dict[str, Any]) -> List[list]:
    return [["hpc-ib" if group == "polling" else group, key, _ms(r["time"]),
             _ms(r["phases"]["vel_update"]), _ms(r["phases"]["ppe"]),
             round(out["mpi"]["time"] / r["time"], 3)]
            for group, out in p.items() for key, r in out.items()
            if (group, key) != ("polling", "mpi")]  # the hpc-ib baseline again


def _fig7() -> Dict[str, Any]:
    # The fourth TH-XY point (1728 nodes) costs more host time than the
    # rest of the ledger; benchmarks/test_paper_claims.py runs it on request.
    return {"th-2a": fig7_scaling("th-2a", steps=1),
            "th-xy": fig7_scaling("th-xy", steps=1, max_points=3)}


FIGURES: Dict[str, Figure] = {
    "table1": Figure(
        "Table I: UNR support levels",
        ("level", "put-remote bits", "encoding", "max signals", "multi-channel", "polling"),
        lambda: {_width(b, hw): policy_for_channel(synthetic_channel(b, hw)[1])
                 for b, hw, _ in TABLE1_LEVELS},
        lambda p: [[pol.level, key,
                    "ordered (p,a) msg" if pol.level == 0 else f"p:{pol.p_bits}b a:{pol.a_bits}b",
                    min(max_signals(pol), 1 << 62), _yes(pol.multi_channel),
                    _yes(pol.uses_polling)] for key, pol in p.items()],
    ),
    "table2": Figure(
        "Table II: UNR support level of high-performance NICs",
        ("interface", "interconnect", "PUT local", "PUT remote", "GET local", "GET remote",
         "level"),
        lambda: TABLE_II,
        lambda p: [[cap.interface, cap.interconnect]
                   + [cap.display(f) for f in ("put_local", "put_remote", "get_local",
                                               "get_remote")]
                   + [f"Level-{support_level(cap)}"] for cap in p.values()],
    ),
    "table3": Figure(
        "Table III: experiment platforms",
        ("system", "CPU", "NIC(s)", "used nodes", "UNR channel"),
        lambda: REGISTRY,
        lambda p: [[f"{q.name} ({q.abbrev}, {q.deployed})", q.cpu_desc, q.nic_desc, q.max_nodes,
                    q.channel] for q in p.values()],
    ),
    "fig4": Figure(
        "Figure 4: half round-trip latency (us), UNR vs MPI-RMA, 10 iterations",
        ("platform", "size", "UNR", "fence", "PSCW", "lock"),
        _fig4,
        lambda p: [[plat, format_size(size)]
                   + [round(p[plat][k][i], 3) for k in ("unr", "fence", "pscw", "lock")]
                   for plat in PLATFORMS for i, size in enumerate(FIG4_SIZES)],
    ),
    "fig5": Figure(
        "Figure 5: shared-NIC throughput gain on TH-XY (%), 2 procs x 2 NICs",
        ("size", "(a3) balanced", "(b2) calc ~ N(T, 0.3T)"),
        _fig5,
        lambda p: [[format_size(s), round(100 * a, 3), round(100 * b, 3)]
                   for s, a, b in zip(FIG5_SIZES, p["a3"], p["b2"])],
    ),
    "fig6": Figure(
        "Figure 6: PowerLLEL (simulated ms) and speedup over the MPI baseline, 2 steps",
        ("platform", "variant", "total", "vel_update", "ppe", "speedup"),
        _fig6,
        _fig6_rows,
    ),
    "fig7": Figure(
        "Figure 7: PowerLLEL strong scaling (simulated ms), UNR, 1 step",
        ("platform", "nodes", "total", "vel_update", "ppe", "efficiency"),
        _fig7,
        lambda p: [[plat, r["nodes"], _ms(r["time"]), _ms(r["vel_update"]), _ms(r["ppe"]),
                    round(r["efficiency"], 3)] for plat, rows in p.items() for r in rows],
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


def _pscw_over_unr(p: Dict[str, Any], plat: str) -> float:
    return p[plat]["pscw"][0] / p[plat]["unr"][0]


def _speedup(plat: str, variant: str = "unr") -> Callable[[Any], float]:
    return lambda p: p[plat][variant]["speedup"]


def _phase_efficiency(rows: List[Dict], phase: str) -> float:
    first, last = rows[0], rows[-1]
    return (first[phase] / last[phase]) * (first["nodes"] / last["nodes"])


def _claims() -> Tuple[Claim, ...]:
    claims: List[Claim] = []
    add = claims.append
    # Table I: the level each width classifies to, and what it implies.
    for bits, hw, level in TABLE1_LEVELS:
        key = _width(bits, hw)
        add(Claim(f"table1.bits-{key}.level", level, lambda p, k=key: p[k].level, ("==", level)))
    add(Claim("table1.level-2.multi-channel", 0, lambda p: p["32"].multi_channel, ("==", 0)))
    add(Claim("table1.level-3.multi-channel", 1, lambda p: p["64"].multi_channel, ("==", 1)))
    add(Claim("table1.level-4.polling", 0, lambda p: p["128+hw"].uses_polling, ("==", 0)))
    # Table II: every interface's level, and no other interface.
    for name, level in TABLE2_LEVELS.items():
        add(Claim(f"table2.{name}.level", level, lambda p, n=name: support_level(p[n]),
                  ("==", level)))
    add(Claim("table2.interfaces", len(TABLE2_LEVELS), len, ("==", len(TABLE2_LEVELS))))
    add(Claim("table3.systems", 4, len, ("==", 4)))
    # Figure 4: UNR beats fence and lock at every size; PSCW is the best
    # MPI-RMA scheme at 8 B; at 1 MiB only TH-XY's second rail keeps UNR ahead.
    for q in PLATFORMS:
        add(Claim(f"fig4.{q}.fence-over-unr", None,
                  lambda p, q=q: _min_ratio(p[q], "fence", "unr"), (">", 1.0)))
        add(Claim(f"fig4.{q}.lock-over-unr", None,
                  lambda p, q=q: _min_ratio(p[q], "lock", "unr"), (">", 1.0)))
        add(Claim(f"fig4.{q}.fence-over-pscw-8b", None,
                  lambda p, q=q: p[q]["fence"][0] / p[q]["pscw"][0], (">=", 1.0)))
        add(Claim(f"fig4.{q}.fence-over-unr-1m", None,
                  lambda p, q=q: p[q]["fence"][-1] / p[q]["unr"][-1],
                  (">", 1.5) if q == "th-xy" else ("<", 2.0)))
    add(Claim("fig4.hpc-ib.pscw-over-unr-8b", 1.0, lambda p: _pscw_over_unr(p, "hpc-ib"),
              ("<", 3.0), POLLING))
    add(Claim("fig4.pscw-gap.hpc-ib-over-th-2a", None,
              lambda p: _pscw_over_unr(p, "hpc-ib") / _pscw_over_unr(p, "th-2a"), ("<", 1.0)))
    add(Claim("fig4.th-xy.level4-over-polled-8b", None,
              lambda p: p["th-xy+hw"] / p["th-xy"]["unr"][0], ("<=", 1.0)))
    # Figure 5: (a3) the gain grows with size toward the 1/3 bound; (b1)
    # a saturated pipeline gains nothing; (b2) sharing absorbs imbalance.
    add(Claim("fig5.a3.min-gain", None, lambda p: min(p["a3"]), (">", -0.02)))
    add(Claim("fig5.a3.gain-4m", 0.333, lambda p: p["a3"][-1], (">", 0.10)))
    add(Claim("fig5.a3.max-gain", None, lambda p: max(p["a3"]), ("<", 0.40)))
    add(Claim("fig5.a3.growth", None, lambda p: p["a3"][-1] - p["a3"][0], (">=", 0.0)))
    add(Claim("fig5.b1.gain-1m", None, lambda p: abs(p["b1"]), ("<", 0.10)))
    add(Claim("fig5.b2.gain-4m", 0.10, lambda p: p["b2"][-1], (">", 0.03), IMBALANCE))
    add(Claim("fig5.b2.gain-4m-cap", None, lambda p: p["b2"][-1], ("<", 0.45)))
    # Figure 6: UNR speeds PowerLLEL up everywhere, most on TH-XY; the
    # fallback helps TH-XY and hurts TH-2A; reserved cores beat busy polling.
    for q, paper in (("th-xy", 1.36), ("th-2a", 1.29), ("hpc-ib", 1.20), ("hpc-roce", 1.29)):
        cause = TRANSPOSE if q in ("th-2a", "hpc-ib") else None
        add(Claim(f"fig6.{q}.unr", paper, _speedup(q), (">", 1.0), cause))
        add(Claim(f"fig6.{q}.unr-cap", None, _speedup(q), ("<", 1.8)))
    add(Claim("fig6.th-xy.fallback", 1.20, _speedup("th-xy", "unr_fallback"), (">", 1.1)))
    add(Claim("fig6.th-2a.fallback", 0.39, _speedup("th-2a", "unr_fallback"), ("<", 0.85),
              FALLBACK))
    add(Claim("fig6.th-xy.largest-gain", None,
              lambda p: p["th-xy"]["unr"]["speedup"]
              / max(p[q]["unr"]["speedup"] for q in PLATFORMS[1:]), (">=", 1.0)))
    for key, name, paper in (("18_thread", "busy-18", 1.20), ("16_thread", "reserved-16", 1.31),
                             ("interval", "interval", None)):
        add(Claim(f"fig6.hpc-ib.{name}", paper, _speedup("polling", key), (">", 1.0),
                  TRANSPOSE if paper else None))
    add(Claim("fig6.hpc-ib.reserved-over-busy", round(1.31 / 1.20, 3),
              lambda p: _speedup("polling", "16_thread")(p) / _speedup("polling", "18_thread")(p),
              (">=", 1.0)))
    # Figure 7: high efficiency over the node range, decaying; the
    # velocity update scales near-linearly and the PPE is the bottleneck.
    add(Claim("fig7.th-2a.first-nodes", 12, lambda p: p["th-2a"][0]["nodes"], ("==", 12)))
    add(Claim("fig7.th-2a.last-nodes", 192, lambda p: p["th-2a"][-1]["nodes"], ("==", 192)))
    add(Claim("fig7.th-2a.efficiency", 0.95, lambda p: p["th-2a"][-1]["efficiency"],
              (">", 0.75), PPE))
    add(Claim("fig7.th-2a.efficiency-decay", None,
              lambda p: p["th-2a"][-1]["efficiency"] - p["th-2a"][0]["efficiency"],
              ("<=", 1e-9)))
    add(Claim("fig7.th-2a.vel-over-ppe", None,
              lambda p: _phase_efficiency(p["th-2a"], "vel_update")
              / _phase_efficiency(p["th-2a"], "ppe"), (">", 1.0)))
    add(Claim("fig7.th-2a.vel-efficiency", None,
              lambda p: _phase_efficiency(p["th-2a"], "vel_update"), (">", 0.8)))
    add(Claim("fig7.th-xy.first-nodes", 288, lambda p: p["th-xy"][0]["nodes"], ("==", 288)))
    add(Claim("fig7.th-xy.efficiency", 0.85, lambda p: p["th-xy"][-1]["efficiency"],
              (">", 0.70)))
    return tuple(claims)


CLAIMS = _claims()


# -- the record ----------------------------------------------------------

def compute(only: Optional[str] = None) -> Dict[str, Any]:
    """Run each figure's driver once (only ``only``'s when given) and
    return the record: per figure its table, and every claim with its
    measured value and verdict."""
    figures = {}
    for name, fig in FIGURES.items():
        if only not in (None, name):
            continue
        points = fig.run()
        claims = []
        for claim in (c for c in CLAIMS if c.figure == name):
            value = float(claim.measure(points))
            claims.append({"id": claim.id, "paper": claim.paper, "measured": value,
                           "bound": list(claim.bound), "verdict": claim.verdict(value)})
        figures[name] = {"title": fig.title, "headers": list(fig.headers),
                         "rows": fig.rows(points), "claims": claims}
    record = {"schema": SCHEMA, "tolerance": TOLERANCE,
              "causes": {c.name: {"assumption": c.assumption, "risk": c.risk,
                                  "severity": c.severity} for c in CAUSES},
              "figures": figures}
    return json.loads(json.dumps(record))  # exactly what claims.json holds


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


def diff(record: Dict[str, Any], committed: Dict[str, Any]) -> List[str]:
    """What in ``record`` differs from ``committed``, over the figures
    ``record`` covers (empty: the record reproduces)."""
    problems = [f"{key}: differs from the committed record"
                for key in ("tolerance", "causes") if record[key] != committed.get(key)]
    for name, fig in record["figures"].items():
        old = committed["figures"].get(name, {"claims": []})
        if any(old.get(key) != fig[key] for key in ("title", "headers", "rows")):
            problems.append(f"{name}: table differs from the committed one")
        was = {c["id"]: c for c in old["claims"]}
        now = {c["id"]: c for c in fig["claims"]}
        for cid in [*now, *sorted(was.keys() - now.keys())]:
            if now.get(cid) != was.get(cid):
                problems.append(f"{cid}: measured {_outcome(now.get(cid))}, "
                                f"committed {_outcome(was.get(cid))}")
    return problems


def _bound(c: Dict) -> str:
    return f"{c['bound'][0]} {c['bound'][1]:g}"


def render_text(record: Dict[str, Any]) -> str:
    """The tables and verdicts ``repro paper`` prints."""
    out = []
    for fig in record["figures"].values():
        out += [fig["title"], format_table(fig["headers"], fig["rows"])]
        for c in fig["claims"]:
            paper = "" if c["paper"] is None else f"paper {c['paper']:g}"
            out.append(f"  {c['id']:34s} {c['measured']:>9.4g} {_bound(c):9s} {paper:11s} "
                       f"{c['verdict']}")
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
                   f"{c['measured']:.4g}", _bound(c), c["verdict"]] for c in fig["claims"]]
        lines = [f"*{fig['title']}*", "",
                 *_md_table(fig["headers"], [[format_cell(x) for x in r] for r in fig["rows"]]),
                 "", *_md_table(["claim", "paper", "measured", "bound", "verdict"], claims)]
    return "\n".join(lines) + "\n"


_BLOCK = re.compile(r"(<!-- paper:([\w-]+) -->\n)(.*?)(<!-- /paper:\2 -->)", re.S)


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
