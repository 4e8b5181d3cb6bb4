"""Tests for the benchmark's report checks (workloads.check_job)."""
import copy
import json

from workloads import CHECK_BATCHED, GOLDEN_SEED, PROPAGATE_TIMEPHASE, \
    WORKLOADS, check_job, load_golden

GOLDEN = load_golden()
HOHO_CHECK = CHECK_BATCHED[0]


def _report_text(job, seed=GOLDEN_SEED, edit=None) -> str:
    envelope = {"seed": seed, **copy.deepcopy(GOLDEN[job.key])}
    if edit:
        edit(envelope)
    return json.dumps(envelope)


def test_golden_report_passes_every_job():
    jobs = [job for workload in WORKLOADS.values() for job in workload]
    assert sorted(job.key for job in jobs) == sorted(GOLDEN)
    for job in jobs:
        assert check_job(job, GOLDEN_SEED, 0, _report_text(job), GOLDEN) == []


def test_wrong_exit_code_or_missing_report_fails():
    assert check_job(HOHO_CHECK, GOLDEN_SEED, 3, _report_text(HOHO_CHECK),
                     GOLDEN)
    assert check_job(HOHO_CHECK, GOLDEN_SEED, 0, None, GOLDEN)


def test_non_finite_value_fails():
    def poison(envelope):
        envelope["report"]["zeroth_sup"] = float("nan")
    text = _report_text(HOHO_CHECK, edit=poison)
    assert "NaN" in text
    problems = check_job(HOHO_CHECK, GOLDEN_SEED, 0, text, GOLDEN)
    assert problems and "strict JSON" in problems[0]


def test_golden_mismatch_fails_only_where_golden_applies():
    def nudge(envelope):
        envelope["report"]["cc"]["cc6"] = 1e-12  # still below tol
    text = _report_text(HOHO_CHECK, edit=nudge)
    assert check_job(HOHO_CHECK, GOLDEN_SEED, 0, text, GOLDEN)
    # another seed draws other samples: only the invariants apply
    other = _report_text(HOHO_CHECK, seed=GOLDEN_SEED + 1, edit=nudge)
    assert check_job(HOHO_CHECK, GOLDEN_SEED + 1, 0, other, GOLDEN) == []


def test_false_consistent_verdict_fails_the_invariant():
    def flip(envelope):
        envelope["report"]["zeroth_sup"] = 0.5
    text = _report_text(HOHO_CHECK, seed=7, edit=flip)
    assert check_job(HOHO_CHECK, 7, 0, text, GOLDEN) == [
        "invariant failed: zeroth, derivative and cc sups below tol"]


def test_simulate_reports_are_golden_for_every_seed():
    job = PROPAGATE_TIMEPHASE[0]
    assert job.strang_steps() == 4 * (5 + 10 + 20)

    def drift(envelope):
        envelope["report"]["fitted_order"] *= 1 + 1e-6
    assert check_job(job, 5, 0, _report_text(job, seed=5, edit=drift),
                     GOLDEN)
