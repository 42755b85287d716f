"""unrverify policy-layer tests: zero false positives on the golden
corpus, 100% detection on the seeded mutants, and wire passivity."""

import warnings

import pytest

from repro.analysis import VERIFY_RULES, verify_recorder, verify_schedule
from repro.analysis.mutants import MUTANTS, run_all_mutants
from repro.bench.fingerprints import (
    PLATFORMS,
    SCHEDULES,
    load_corpus,
    run_schedule,
    run_schedule_observed,
)

GOLDEN = load_corpus()


# -- the golden corpus must be silent -----------------------------------------

@pytest.mark.parametrize(
    "platform,schedule",
    [(p, s) for p in PLATFORMS for s in SCHEDULES],
    ids=[f"{p}/{s}" for p in PLATFORMS for s in SCHEDULES],
)
def test_golden_scenario_verifies_clean_and_on_fingerprint(platform, schedule):
    report = verify_schedule(platform, schedule)
    assert report.ok, "\n".join(f.format() for f in report.findings)
    # Arming the verifier must not perturb the wire: the observed run's
    # fingerprint still matches the committed golden entry.
    assert report.fingerprint == GOLDEN[f"{platform}/{schedule}"]


def test_armed_equals_disarmed_fingerprint():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        disarmed = run_schedule("th-xy", "stream")
        armed, recorder = run_schedule_observed("th-xy", "stream")
    assert armed == disarmed
    # And the armed run actually observed something to verify.
    assert recorder.ops and recorder.protocol


# -- the mutation corpus must be fully flagged --------------------------------

def test_every_seeded_mutant_is_flagged_with_its_expected_rule():
    outcomes = run_all_mutants()
    assert len(outcomes) == len(MUTANTS) >= 6
    missed = [o.name for o in outcomes if not o.flagged]
    assert missed == [], f"undetected mutants: {missed}"
    for outcome in outcomes:
        assert set(outcome.got) & set(outcome.expect), outcome


def test_mutant_corpus_covers_every_verifier_rule():
    expected = {rule for m in MUTANTS.values() for rule in m.expect}
    assert expected == set(VERIFY_RULES)


# -- report mechanics ---------------------------------------------------------

def test_findings_carry_trace_origin_and_seq():
    from repro.analysis.mutants import _RUNNERS

    recorder = _RUNNERS["unawaited_notification"]()
    report = verify_recorder(recorder, origin="unit/odd")
    assert not report.ok
    for finding in report.findings:
        assert finding.path == "trace://unit/odd"
        assert finding.line >= 0
        assert finding.rule.startswith("VER")


def test_empty_recorder_verifies_clean():
    from repro.obs.recorder import Recorder
    from repro.sim import Environment

    report = verify_recorder(Recorder(Environment()), origin="unit/empty")
    assert report.ok and report.findings == []
