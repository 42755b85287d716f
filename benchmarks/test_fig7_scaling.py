"""Figure 7: PowerLLEL strong scalability on TH-2A and TH-XY.

Regenerates the strong-scaling curves with the velocity-update / PPE
time breakdown.  Shape assertions (the paper's findings):

* high parallel efficiency over a 16x node range on TH-2A (paper: 95%
  from 12 to 192 nodes);
* the velocity update scales near-linearly (communication hidden under
  computation), while the PPE solver is the efficiency bottleneck;
* TH-XY sustains efficiency out to very large node counts (paper: 85%
  at 1728 nodes; run the full series with REPRO_FULL_SCALE=1 — the
  default stops at 1152 nodes to keep host time modest).
"""

import os

import pytest

from conftest import record
from repro.bench import fig7_scaling, format_table

FULL = bool(os.environ.get("REPRO_FULL_SCALE"))


def _emit_rows(emit, platform, rows):
    emit(
        f"Figure 7 ({platform}): strong scaling",
        format_table(
            ["nodes", "time (s)", "vel_update", "ppe", "efficiency"],
            [
                [r["nodes"], r["time"], r["vel_update"], r["ppe"], round(r["efficiency"], 3)]
                for r in rows
            ],
        ),
    )


def test_fig7_th2a(benchmark, emit):
    rows = record(benchmark, fig7_scaling, "th-2a", 1)
    _emit_rows(emit, "th-2a", rows)
    benchmark.extra_info["efficiency"] = {r["nodes"]: r["efficiency"] for r in rows}
    assert rows[0]["nodes"] == 12 and rows[-1]["nodes"] == 192
    # High efficiency across the 16x range (paper: 95%).
    assert rows[-1]["efficiency"] > 0.75
    # Efficiency decays monotonically (within noise).
    assert rows[-1]["efficiency"] <= rows[0]["efficiency"] + 1e-9
    # Velocity update scales better than the PPE solver.
    first, last = rows[0], rows[-1]
    ratio = first["nodes"] / last["nodes"]  # ideal time ratio
    vel_eff = (first["vel_update"] / last["vel_update"]) * ratio
    ppe_eff = (first["ppe"] / last["ppe"]) * ratio
    assert vel_eff > ppe_eff, "PPE must be the scaling bottleneck"
    assert vel_eff > 0.8, "velocity update should scale near-linearly"


@pytest.mark.parametrize("max_points", [None if FULL else 3])
def test_fig7_thxy(benchmark, emit, max_points):
    rows = record(benchmark, fig7_scaling, "th-xy", 1, max_points)
    _emit_rows(emit, "th-xy", rows)
    benchmark.extra_info["efficiency"] = {r["nodes"]: r["efficiency"] for r in rows}
    assert rows[0]["nodes"] == 288
    # Paper: 85% parallel efficiency from 288 to 1728 nodes.
    assert rows[-1]["efficiency"] > 0.70
