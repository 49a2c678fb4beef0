"""The campaign supervisor: retries, resume, degradation, chaos."""

import json

import pytest

from repro.common.errors import (
    EXIT_OK,
    EXIT_PARTIAL,
    JournalError,
    ReproError,
)
from repro.resilience import (
    REASON_WALL_CLOCK,
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    Campaign,
    ChaosConfig,
    ChaosMonkey,
    ResourceBudget,
    RetryPolicy,
    RunJournal,
    Supervisor,
    WorkUnit,
    journal_path,
    missing_cell_lines,
    render_outcome,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_supervisor(**kwargs):
    kwargs.setdefault("sleep", lambda _t: None)
    kwargs.setdefault("policy", RetryPolicy(base_delay_s=0.0, jitter=0.0))
    return Supervisor(**kwargs)


def read_journal(run_dir, run_id):
    """A reader over the journal a supervisor wrote under *run_dir*."""
    return RunJournal(journal_path(run_dir, run_id), run_id)


def campaign_of(runners, name="test"):
    return Campaign(
        name=name,
        units=[
            WorkUnit(
                kind="cell",
                params={"value": i},
                runner=runner,
                label=f"cell[{i}]",
            )
            for i, runner in enumerate(runners)
        ],
    )


class TestHappyPath:
    def test_all_units_succeed(self):
        campaign = campaign_of([lambda: {"v": 1}, lambda: {"v": 2}])
        outcome = make_supervisor().run(campaign)
        assert outcome.ok and not outcome.partial
        assert outcome.exit_code == EXIT_OK
        assert outcome.count(STATUS_OK) == 2
        assert [o.attempts for o in outcome.outcomes] == [1, 1]
        assert outcome.results == {
            campaign.units[0].unit_id: {"v": 1},
            campaign.units[1].unit_id: {"v": 2},
        }

    def test_results_are_json_normalized(self):
        campaign = campaign_of([lambda: {"axis": (1, 2)}])
        outcome = make_supervisor().run(campaign)
        assert outcome.outcomes[0].result == {"axis": [1, 2]}


class TestRetries:
    def test_flaky_unit_retried_to_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return {"v": 42}

        slept = []
        supervisor = make_supervisor(
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.01, jitter=0.0),
            sleep=slept.append,
        )
        outcome = supervisor.run(campaign_of([flaky]))
        assert outcome.ok
        unit = outcome.outcomes[0]
        assert unit.status == STATUS_OK
        assert unit.attempts == 3
        assert unit.result == {"v": 42}
        # Exponential, zero-jitter schedule: 0.01 then 0.02.
        assert slept == pytest.approx([0.01, 0.02])

    def test_attempts_exhausted_is_failed(self):
        def always():
            raise OSError("still down")

        supervisor = make_supervisor(policy=RetryPolicy(max_attempts=2,
                                                        base_delay_s=0.0))
        outcome = supervisor.run(campaign_of([always, lambda: {"v": 1}]))
        failed, ok = outcome.outcomes
        assert failed.status == STATUS_FAILED
        assert failed.attempts == 2
        assert failed.failure_class == "crash"
        assert "still down" in failed.error
        # Later units still run: a unit failure is not degradation.
        assert ok.status == STATUS_OK
        assert outcome.partial and outcome.degraded is None
        assert outcome.exit_code == EXIT_PARTIAL

    def test_deterministic_failure_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise ReproError("bad parameters")

        supervisor = make_supervisor(policy=RetryPolicy(max_attempts=5))
        outcome = supervisor.run(campaign_of([broken]))
        assert len(calls) == 1
        unit = outcome.outcomes[0]
        assert unit.status == STATUS_FAILED
        assert unit.failure_class == "deterministic"


class TestBudgetDegradation:
    def test_wall_clock_exhaustion_cancels_remaining(self):
        clock = FakeClock()

        def slow():
            clock.advance(6.0)
            return {"v": 1}

        supervisor = make_supervisor(
            budget=ResourceBudget(wall_clock_s=10.0), clock=clock
        )
        campaign = campaign_of([slow, slow, lambda: {"v": 3}])
        outcome = supervisor.run(campaign)
        statuses = [o.status for o in outcome.outcomes]
        assert statuses == [STATUS_OK, STATUS_OK, STATUS_CANCELLED]
        assert outcome.degraded == REASON_WALL_CLOCK
        assert outcome.outcomes[2].error == REASON_WALL_CLOCK
        assert outcome.exit_code == EXIT_PARTIAL
        assert outcome.wall_s == pytest.approx(12.0)

    def test_exhaustion_between_retries_surfaces_budget(self, tmp_path):
        clock = FakeClock()

        def failing():
            clock.advance(11.0)
            raise OSError("transient")

        campaign = campaign_of([failing])
        supervisor = make_supervisor(
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            budget=ResourceBudget(wall_clock_s=10.0),
            clock=clock,
            run_dir=tmp_path,
            run_id="run1",
        )
        outcome = supervisor.run(campaign)
        journal = read_journal(tmp_path, "run1")
        unit = outcome.outcomes[0]
        assert unit.status == STATUS_FAILED
        assert unit.attempts == 1  # no budget left for attempt 2
        assert unit.failure_class == "budget"
        assert unit.error == REASON_WALL_CLOCK
        # Budget failures stay out of the journal so a resume retries
        # the unit instead of trusting a verdict it never reached.
        assert journal.unit_record_count() == 0

    def test_missing_cells_are_stable_text(self):
        clock = FakeClock()

        def slow():
            clock.advance(11.0)
            return {"v": 1}

        supervisor = make_supervisor(
            budget=ResourceBudget(wall_clock_s=10.0), clock=clock
        )
        outcome = supervisor.run(campaign_of([slow, lambda: {"v": 2}]))
        assert missing_cell_lines(outcome) == [
            f"MISSING cell[1]: cancelled ({REASON_WALL_CLOCK})"
        ]


class TestJournalResume:
    def test_resume_skips_completed_units_byte_identically(self, tmp_path):
        runners = [lambda: {"zeta": 1, "alpha": 2}, lambda: {"v": 2}]
        campaign = campaign_of(runners)
        first = make_supervisor(run_dir=tmp_path, run_id="run1").run(campaign)
        journal = read_journal(tmp_path, "run1")
        records_after_first = journal.unit_record_count()

        campaign2 = campaign_of(runners)
        second = make_supervisor(
            run_dir=tmp_path, run_id="run1", resume=True
        ).run(campaign2)

        assert [o.status for o in second.outcomes] == [STATUS_SKIPPED] * 2
        assert second.ok and second.exit_code == EXIT_OK
        # No unit re-executed: the journal grew no new unit records.
        assert journal.unit_record_count() == records_after_first == 2
        # Byte-identical payloads, key order included.
        assert json.dumps(second.results) == json.dumps(first.results)

    def test_failed_units_are_retried_on_resume(self, tmp_path):
        attempts = []

        def flaky_once():
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("first run dies")
            return {"v": 7}

        runners = [lambda: {"v": 1}, flaky_once]
        campaign = campaign_of(runners)
        first = make_supervisor(
            run_dir=tmp_path, run_id="run1",
            policy=RetryPolicy(max_attempts=1),
        ).run(campaign)
        assert first.partial

        campaign2 = campaign_of(runners)
        second = make_supervisor(
            run_dir=tmp_path, run_id="run1", resume=True
        ).run(campaign2)
        assert [o.status for o in second.outcomes] == [
            STATUS_SKIPPED, STATUS_OK,
        ]
        assert second.ok
        assert second.results[campaign2.units[1].unit_id] == {"v": 7}

    def test_header_records_the_budget(self, tmp_path):
        # The live `status` monitor reads the budget from the header.
        make_supervisor(
            run_dir=tmp_path, run_id="b",
            budget=ResourceBudget(wall_clock_s=120.0, max_rss_mb=512.0),
        ).run(campaign_of([lambda: {"v": 1}]))
        assert read_journal(tmp_path, "b").header()["budget"] == {
            "wall_clock_s": 120.0, "max_rss_mb": 512.0,
        }

    def test_unnamed_run_journals_nothing(self, tmp_path):
        outcome = make_supervisor(run_dir=tmp_path).run(
            campaign_of([lambda: {"v": 1}])
        )
        assert outcome.ok and outcome.run_id is None
        assert list(tmp_path.iterdir()) == []

    def test_outcome_carries_run_id(self, tmp_path):
        campaign = campaign_of([lambda: {"v": 1}])
        outcome = make_supervisor(run_dir=tmp_path, run_id="rid").run(campaign)
        assert outcome.run_id == "rid"
        assert read_journal(tmp_path, "rid").records()[-1]["status"] == (
            "complete"
        )

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        # Journaled results are reused only on resume: naming a run
        # that already has a journal is refused at construction, and
        # the journal is left as it was.
        make_supervisor(run_dir=tmp_path, run_id="run1").run(
            campaign_of([lambda: {"v": 1}])
        )
        before = journal_path(tmp_path, "run1").read_bytes()
        with pytest.raises(JournalError, match="already has a journal"):
            make_supervisor(run_dir=tmp_path, run_id="run1")
        assert journal_path(tmp_path, "run1").read_bytes() == before


class TestChaos:
    def test_kill_every_attempt_fails_the_unit(self):
        monkey = ChaosMonkey(ChaosConfig(kill_prob=1.0), sleep=lambda _t: None)
        supervisor = make_supervisor(
            chaos=monkey, policy=RetryPolicy(max_attempts=3, base_delay_s=0.0)
        )
        outcome = supervisor.run(campaign_of([lambda: {"v": 1}]))
        unit = outcome.outcomes[0]
        assert unit.status == STATUS_FAILED
        assert unit.failure_class == "crash"
        assert monkey.kills == 3

    def test_killed_attempt_can_succeed_on_retry(self):
        # Find a seed whose first strike kills and second passes for
        # this unit id — deterministic, so the search is stable too.
        campaign = campaign_of([lambda: {"v": 1}])
        unit_id = campaign.units[0].unit_id
        chosen = None
        for seed in range(200):
            probe = ChaosMonkey(
                ChaosConfig(seed=seed, kill_prob=0.5, delay_prob=0.0,
                            oom_prob=0.0),
                sleep=lambda _t: None,
            )
            first = second = None
            try:
                probe.strike(unit_id, 1)
                first = "pass"
            except Exception:
                first = "kill"
            try:
                probe.strike(unit_id, 2)
                second = "pass"
            except Exception:
                second = "kill"
            if first == "kill" and second == "pass":
                chosen = seed
                break
        assert chosen is not None
        monkey = ChaosMonkey(
            ChaosConfig(seed=chosen, kill_prob=0.5, delay_prob=0.0,
                        oom_prob=0.0),
            sleep=lambda _t: None,
        )
        outcome = make_supervisor(chaos=monkey).run(campaign)
        unit = outcome.outcomes[0]
        assert unit.status == STATUS_OK
        assert unit.attempts == 2

    @pytest.mark.slow
    def test_chaos_stress_campaign_survives(self, tmp_path):
        # A wide campaign under heavy, seeded sabotage: with enough
        # attempts per unit the supervisor must still finish clean.
        runners = [lambda i=i: {"v": i} for i in range(40)]
        campaign = campaign_of(runners, name="stress")
        monkey = ChaosMonkey(
            ChaosConfig(seed=3, kill_prob=0.3, delay_prob=0.3, oom_prob=0.1,
                        max_delay_s=0.001),
            sleep=lambda _t: None,
        )
        supervisor = make_supervisor(
            chaos=monkey,
            policy=RetryPolicy(max_attempts=10, base_delay_s=0.0),
            run_dir=tmp_path,
            run_id="stress",
        )
        outcome = supervisor.run(campaign)
        assert outcome.ok
        assert outcome.count(STATUS_OK) == 40
        assert monkey.strikes > 0
        assert read_journal(tmp_path, "stress").unit_record_count() == 40


class TestRendering:
    def test_render_outcome_counts_and_retries(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise OSError("transient")
            return {"v": 1}

        outcome = make_supervisor().run(campaign_of([flaky, lambda: {"v": 2}]))
        text = render_outcome(outcome)
        assert "== campaign test: COMPLETE ==" in text
        assert "2 total, 2 ok, 0 resumed, 0 failed, 0 cancelled" in text
        assert "retries: 1" in text

    def test_render_outcome_partial_names_reason(self):
        clock = FakeClock()

        def slow():
            clock.advance(99.0)
            return {"v": 1}

        supervisor = make_supervisor(
            budget=ResourceBudget(wall_clock_s=10.0), clock=clock
        )
        outcome = supervisor.run(campaign_of([slow, lambda: {"v": 2}]))
        text = render_outcome(outcome)
        assert "PARTIAL" in text
        assert f"degraded: {REASON_WALL_CLOCK}" in text
        assert "MISSING cell[1]" in text
