"""The campaign supervisor: one run per unit, resume, degradation."""

import json

import pytest

from repro.common.errors import (
    EXIT_OK,
    EXIT_PARTIAL,
    JournalError,
    ReproError,
    TraceError,
    UnitTimeoutError,
    UnknownEngineError,
)
from repro.resilience import (
    REASON_WALL_CLOCK,
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    Campaign,
    ResourceBudget,
    RunJournal,
    Supervisor,
    WorkUnit,
    journal_path,
    missing_cell_lines,
    render_outcome,
)
from repro.resilience.supervisor import _failure_class


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def read_journal(run_dir, run_id):
    """A reader over the journal a supervisor wrote under *run_dir*."""
    return RunJournal(journal_path(run_dir, run_id), run_id)


def copy_with_retry_counts(source, target):
    """Copy a journal into the shape written while units could retry.

    Unit records then carried ``attempts`` and their telemetry
    ``retries``; the end record's roll-up summed ``retries``.
    """
    lines = []
    for line in source.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["type"] == "unit":
            shaped = {}
            for key, value in record.items():
                shaped[key] = value
                if key == "status":
                    shaped["attempts"] = 2
            record = shaped
            record["telemetry"]["retries"] = 1
        elif record["type"] == "end":
            record["telemetry"]["retries"] = 2
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    target.parent.mkdir(parents=True)
    target.write_text("".join(lines), encoding="utf-8")


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
        outcome = Supervisor().run(campaign)
        assert outcome.ok and not outcome.partial
        assert outcome.exit_code == EXIT_OK
        assert outcome.count(STATUS_OK) == 2
        assert outcome.results == {
            campaign.units[0].unit_id: {"v": 1},
            campaign.units[1].unit_id: {"v": 2},
        }

    def test_results_are_json_normalized(self):
        campaign = campaign_of([lambda: {"axis": (1, 2)}])
        outcome = Supervisor().run(campaign)
        assert outcome.outcomes[0].result == {"axis": [1, 2]}


@pytest.mark.parametrize("exc, expected", [
    (UnitTimeoutError("slow", timeout_s=1.0), "timeout"),
    # Library errors replay identically from the same inputs.
    (ReproError("x"), "deterministic"),
    (TraceError("x"), "deterministic"),
    (UnknownEngineError("no engine 'x'"), "deterministic"),
    (ValueError("x"), "crash"),
    (MemoryError(), "crash"),
    (OSError("x"), "crash"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_failure_class(exc, expected):
    assert _failure_class(exc) == expected


class TestFailures:
    def test_failing_unit_runs_once_and_is_failed(self):
        calls = []

        def always():
            calls.append(1)
            raise OSError("still down")

        outcome = Supervisor().run(campaign_of([always, lambda: {"v": 1}]))
        failed, ok = outcome.outcomes
        assert len(calls) == 1
        assert failed.status == STATUS_FAILED
        assert failed.failure_class == "crash"
        assert failed.error == "OSError: still down"
        assert failed.result is None
        # Later units still run: a unit failure is not degradation.
        assert ok.status == STATUS_OK
        assert outcome.partial and outcome.degraded is None
        assert outcome.exit_code == EXIT_PARTIAL

    def test_deterministic_failure_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise ReproError("bad parameters")

        outcome = Supervisor().run(campaign_of([broken]))
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

        supervisor = Supervisor(
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

    def test_failure_past_budget_keeps_its_class(self, tmp_path):
        # A unit that fails once the wall-clock budget is spent is
        # journaled with its own class, and the campaign degrades
        # before the next unit. Neither counts as completed, so a
        # resume runs both.
        clock = FakeClock()
        calls = []

        def failing():
            calls.append(1)
            clock.advance(11.0)
            raise OSError("transient")

        campaign = campaign_of([failing, lambda: {"v": 2}])
        outcome = Supervisor(
            budget=ResourceBudget(wall_clock_s=10.0),
            clock=clock,
            run_dir=tmp_path,
            run_id="run1",
        ).run(campaign)
        failed, cancelled = outcome.outcomes
        assert len(calls) == 1
        assert failed.status == STATUS_FAILED
        assert failed.failure_class == "crash"
        assert failed.error == "OSError: transient"
        assert cancelled.status == STATUS_CANCELLED
        assert outcome.degraded == REASON_WALL_CLOCK
        journal = read_journal(tmp_path, "run1")
        assert journal.unit_record_count() == 1
        assert journal.completed() == {}

    def test_missing_cells_are_stable_text(self):
        clock = FakeClock()

        def slow():
            clock.advance(11.0)
            return {"v": 1}

        supervisor = Supervisor(
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
        first = Supervisor(run_dir=tmp_path, run_id="run1").run(campaign)
        journal = read_journal(tmp_path, "run1")
        records_after_first = journal.unit_record_count()

        campaign2 = campaign_of(runners)
        second = Supervisor(
            run_dir=tmp_path, run_id="run1", resume=True
        ).run(campaign2)

        assert [o.status for o in second.outcomes] == [STATUS_SKIPPED] * 2
        assert second.ok and second.exit_code == EXIT_OK
        # No unit re-executed: the journal grew no new unit records.
        assert journal.unit_record_count() == records_after_first == 2
        # Byte-identical payloads, key order included.
        assert json.dumps(second.results) == json.dumps(first.results)

        # A journal written while units could retry resumes the same way.
        legacy_dir = tmp_path / "legacy"
        copy_with_retry_counts(journal.path, journal_path(legacy_dir, "run1"))
        third = Supervisor(
            run_dir=legacy_dir, run_id="run1", resume=True
        ).run(campaign_of(runners))
        assert [o.status for o in third.outcomes] == [STATUS_SKIPPED] * 2
        assert third.ok and third.exit_code == EXIT_OK
        assert read_journal(legacy_dir, "run1").unit_record_count() == 2
        assert json.dumps(third.results) == json.dumps(first.results)

    def test_failed_units_are_retried_on_resume(self, tmp_path):
        attempts = []

        def flaky_once():
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("first run dies")
            return {"v": 7}

        runners = [lambda: {"v": 1}, flaky_once]
        campaign = campaign_of(runners)
        first = Supervisor(run_dir=tmp_path, run_id="run1").run(campaign)
        assert first.partial
        assert len(attempts) == 1

        campaign2 = campaign_of(runners)
        second = Supervisor(
            run_dir=tmp_path, run_id="run1", resume=True
        ).run(campaign2)
        assert [o.status for o in second.outcomes] == [
            STATUS_SKIPPED, STATUS_OK,
        ]
        assert second.ok
        assert second.results[campaign2.units[1].unit_id] == {"v": 7}

    def test_header_records_the_budget(self, tmp_path):
        # The live `status` monitor reads the budget from the header.
        Supervisor(
            run_dir=tmp_path, run_id="b",
            budget=ResourceBudget(wall_clock_s=120.0, max_rss_mb=512.0),
        ).run(campaign_of([lambda: {"v": 1}]))
        assert read_journal(tmp_path, "b").header()["budget"] == {
            "wall_clock_s": 120.0, "max_rss_mb": 512.0,
        }

    def test_unnamed_run_journals_nothing(self, tmp_path):
        outcome = Supervisor(run_dir=tmp_path).run(
            campaign_of([lambda: {"v": 1}])
        )
        assert outcome.ok and outcome.run_id is None
        assert list(tmp_path.iterdir()) == []

    def test_outcome_carries_run_id(self, tmp_path):
        campaign = campaign_of([lambda: {"v": 1}])
        outcome = Supervisor(run_dir=tmp_path, run_id="rid").run(campaign)
        assert outcome.run_id == "rid"
        assert read_journal(tmp_path, "rid").records()[-1]["status"] == (
            "complete"
        )

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        # Journaled results are reused only on resume: naming a run
        # that already has a journal is refused at construction, and
        # the journal is left as it was.
        Supervisor(run_dir=tmp_path, run_id="run1").run(
            campaign_of([lambda: {"v": 1}])
        )
        before = journal_path(tmp_path, "run1").read_bytes()
        with pytest.raises(JournalError, match="already has a journal"):
            Supervisor(run_dir=tmp_path, run_id="run1")
        assert journal_path(tmp_path, "run1").read_bytes() == before


class TestRendering:
    def test_render_outcome_counts(self):
        def broken():
            raise OSError("down")

        outcome = Supervisor().run(
            campaign_of([lambda: {"v": 1}, broken, lambda: {"v": 2}])
        )
        assert render_outcome(outcome).splitlines() == [
            "== campaign test: PARTIAL ==",
            "units: 3 total, 2 ok, 0 resumed, 1 failed, 0 cancelled",
            "MISSING cell[1]: failed (crash: OSError: down)",
        ]

    def test_render_outcome_partial_names_reason(self):
        clock = FakeClock()

        def slow():
            clock.advance(99.0)
            return {"v": 1}

        supervisor = Supervisor(
            budget=ResourceBudget(wall_clock_s=10.0), clock=clock
        )
        outcome = supervisor.run(campaign_of([slow, lambda: {"v": 2}]))
        text = render_outcome(outcome)
        assert "PARTIAL" in text
        assert f"degraded: {REASON_WALL_CLOCK}" in text
        assert "MISSING cell[1]" in text
