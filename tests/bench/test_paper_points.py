"""The claims ledger's point table (:mod:`repro.bench.paper`): every run
has one id, no run is listed twice, a claim computes only the points it
reads, and a claim that reads none cannot pass.  No PowerLLEL point of
the ledger runs here."""

import copy
from itertools import combinations

import pytest

import repro.bench.paper as paper
from repro.bench import powerllel_point
from repro.bench.paper import CLAIMS, FIGURES, POINTS, Claim, Points, compute, entries
from repro.core import PollingConfig


def test_point_ids_are_unique():
    ids = [point.id for point in paper._points()]
    assert len(ids) == len(set(ids)) == len(POINTS)


def test_no_two_points_are_the_same_run():
    assert [(a.id, b.id) for a, b in combinations(POINTS.values(), 2)
            if (a.driver, a.kwargs) == (b.driver, b.kwargs)] == []


def test_every_claim_reads_a_figure_of_the_table():
    figures = {paper.figure_of(pid) for pid in POINTS}
    assert figures == set(FIGURES)
    assert {claim.figure for claim in CLAIMS} == figures


def test_unknown_point_raises_a_key_error_naming_it():
    store = Points()
    with pytest.raises(KeyError, match="fig7.th-xy.1729"):
        store["fig7.th-xy.1729"]
    assert not store


def test_a_claim_computes_only_the_points_it_reads(monkeypatch):
    """``repro paper --only fig7.th-xy.efficiency`` runs the series'
    first point and the 1152-node one, and no table."""
    runs = []

    def fake_point(platform, **kwargs):
        runs.append((platform, kwargs["nodes"]))
        return {"time": 1.0 / kwargs["nodes"], "phases": {"vel_update": 0.0, "ppe": 0.0}}

    monkeypatch.setattr(paper, "powerllel_point", fake_point)
    store = Points()
    record = compute("fig7.th-xy.efficiency", store)
    assert list(store) == ["fig7.th-xy.288", "fig7.th-xy.1152"]
    assert runs == [("th-xy", 288), ("th-xy", 1152)]
    assert [c["id"] for c in entries(record)] == ["fig7.th-xy.efficiency"]
    assert list(record["figures"]) == ["fig7"] and "rows" not in record["figures"]["fig7"]


def test_hpc_ib_default_polling_is_the_busy_18_thread_leg():
    """Figure 6's 18-thread busy-polling bar reads the ``fig6.hpc-ib.unr``
    point: on HPC-IB the two configurations are one run (toy grid)."""
    grid = dict(nodes=4, py=2, pz=2, nx=64, ny=64, nz=64, steps=1)
    default = powerllel_point("hpc-ib", backend="unr", **grid)
    busy = powerllel_point("hpc-ib", backend="unr", polling=PollingConfig(mode="busy"),
                           threads=18, **grid)
    reserved = powerllel_point("hpc-ib", backend="unr", threads=16,
                               polling=PollingConfig(mode="reserved", reserved_cores=2), **grid)
    assert (busy["time"], busy["phases"]) == (default["time"], default["phases"])
    assert reserved["time"] != default["time"]


TWO_SIDED = (">", 1.0, "<", 1.8)


@pytest.mark.parametrize("value, verdict", [(0.5, "NO-GO"), (1.0, "NO-GO"), (1.4, "GO"),
                                            (1.8, "NO-GO"), (2.5, "NO-GO")])
def test_a_two_sided_bound_holds_only_between_its_open_edges(value, verdict):
    assert Claim("t.two-sided", None, lambda p: value, TWO_SIDED).verdict(value) == verdict


def test_a_claim_that_reads_no_point_is_no_go():
    """A measure that returns a constant cannot fail, so its claim is
    NO-GO inside its bound; the same bound over a computed point holds."""
    store = Points()
    constant = paper._entry(Claim("t.constant", None, lambda p: 1.4, TWO_SIDED), store)
    assert constant["verdict"] == "NO-GO" and not store
    computed = paper._entry(
        Claim("t.computed", None, lambda p: 1.4 + p["table1.0"].level, TWO_SIDED), store)
    assert (computed["measured"], computed["verdict"]) == (1.4, "GO")
    assert list(store) == ["table1.0"]
    assert computed["bound"] == [">", 1.0, "<", 1.8]
    assert paper.format_bound(computed) == "> 1, < 1.8"


def test_one_constant_claim_run_alone_is_no_go(monkeypatch):
    """``repro paper --only <claim>`` applies the same rule."""
    monkeypatch.setattr(paper, "CLAIMS", (*CLAIMS, Claim("table1.constant", 0, lambda p: 0,
                                                         ("==", 0))))
    record = compute("table1.constant", Points())
    assert [(c["id"], c["verdict"]) for c in entries(record)] == [("table1.constant", "NO-GO")]


def test_diff_names_each_field_of_a_claim_that_drifts():
    """A bound or paper value that moves alone is named, not hidden
    behind two identical "measured ... verdict" halves; built from the
    committed record, so no point runs."""
    committed = paper.load_record()
    record = copy.deepcopy(committed)
    claim = next(c for c in record["figures"]["fig5"]["claims"] if c["id"] == "fig5.b2.gain-4m")
    paper_was, bound_was = claim["paper"], claim["bound"]
    claim["paper"], claim["bound"] = 0.5, bound_was[:2]
    gone = record["figures"]["fig6"]["claims"].pop(0)
    assert paper.diff(record, committed) == [
        f"fig5.b2.gain-4m: paper 0.5 != committed {paper_was!r}",
        f"fig5.b2.gain-4m: bound {bound_was[:2]!r} != committed {bound_was!r}",
        f"{gone['id']}: measured nothing, committed {gone['measured']!r} {gone['verdict']}",
    ]
