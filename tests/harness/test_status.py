"""The ``status`` subcommand: read-only journal monitoring."""

import json

import pytest

from repro.common.errors import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, JournalError
from repro.harness.status import (
    follow,
    read_snapshot,
    render_status,
    resolve_journal,
    status_main,
)
from repro.resilience import Campaign, RunJournal, WorkUnit, journal_path


def make_campaign(n=4):
    return Campaign(
        name="camp",
        units=[
            WorkUnit(
                kind="cell",
                params={"value": v},
                runner=lambda v=v: {"value": v},
                label=f"cell[{v}]",
            )
            for v in range(n)
        ],
    )


class FakeTime:
    def __init__(self, start=1000.0):
        self.t = start

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def start_run(tmp_path, n=4, meta=None, start=1000.0):
    """Open a deterministic journal; returns (campaign, journal, clock)."""
    campaign = make_campaign(n)
    journal = RunJournal(journal_path(tmp_path, "run1"), "run1")
    clock = FakeTime(start)
    journal.time_source = clock
    journal.path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "type": "run",
        "schema": 1,
        "run_id": "run1",
        "campaign": campaign.name,
        "fingerprint": campaign.fingerprint,
        "units": len(campaign.units),
    }
    if meta:
        header.update(meta)
    journal._append(header)
    return campaign, journal, clock


class TestSnapshot:
    def test_live_run_counts_and_throughput(self, tmp_path):
        campaign, journal, clock = start_run(tmp_path)
        clock.advance(10.0)
        journal.record_unit(campaign.units[0], "ok", 10.0, result={})
        clock.advance(10.0)
        journal.record_unit(campaign.units[1], "ok", 10.0, result={})
        snapshot = read_snapshot(journal.path, now=lambda: 1020.0)
        assert snapshot.units_total == 4
        assert snapshot.ok == 2
        assert snapshot.pending == 2
        assert snapshot.running
        assert snapshot.elapsed_s == pytest.approx(20.0)
        assert snapshot.units_per_s == pytest.approx(0.1)
        assert snapshot.eta_s == pytest.approx(20.0)

    def test_failed_units_stay_pending_for_resume(self, tmp_path):
        campaign, journal, clock = start_run(tmp_path, n=2)
        clock.advance(1.0)
        journal.record_unit(
            campaign.units[0], "failed", 1.0,
            failure_class="crash", error="boom",
        )
        snapshot = read_snapshot(journal.path, now=lambda: 1001.0)
        assert snapshot.failed == 1
        assert snapshot.pending == 2  # failed units re-run on resume

    def test_resumed_ok_is_sticky_over_earlier_failure(self, tmp_path):
        campaign, journal, clock = start_run(tmp_path, n=1)
        journal.record_unit(
            campaign.units[0], "failed", 1.0,
            failure_class="crash", error="boom",
        )
        clock.advance(1.0)
        journal.record_unit(campaign.units[0], "ok", 1.0, result={})
        snapshot = read_snapshot(journal.path, now=clock)
        assert snapshot.ok == 1
        assert snapshot.failed == 0
        assert snapshot.unit_records == 2

    def test_ended_run_uses_journal_time_not_wall_clock(self, tmp_path):
        campaign, journal, clock = start_run(tmp_path, n=1)
        clock.advance(5.0)
        journal.record_unit(campaign.units[0], "ok", 5.0, result={})
        journal.record_end("complete")
        # `now` far in the future must not inflate elapsed.
        snapshot = read_snapshot(journal.path, now=lambda: 99999.0)
        assert not snapshot.running
        assert snapshot.elapsed_s == pytest.approx(5.0)
        assert snapshot.exit_code == EXIT_OK

    def test_partial_end_maps_to_partial_exit(self, tmp_path, capsys):
        _, journal, _ = start_run(tmp_path, n=2)
        journal.record_end(
            "partial", reason="wall-clock budget exhausted",
            telemetry={"units": 1, "wall_s": 1.0, "cpu_s": 0.5},
        )
        snapshot = read_snapshot(journal.path, now=journal.time_source)
        assert snapshot.end_status == "partial"
        assert snapshot.end_reason == "wall-clock budget exhausted"
        assert snapshot.exit_code == EXIT_PARTIAL
        assert snapshot.telemetry["units"] == 1

        # A journal written while units could retry: unit records carry
        # `attempts`, their telemetry and the end roll-up `retries`.
        campaign, legacy, _ = start_run(tmp_path / "legacy", n=2)
        for unit, status, attempts in (
            (campaign.units[0], "ok", 2),
            (campaign.units[1], "failed", 3),
        ):
            record = {
                "type": "unit", "unit_id": unit.unit_id, "kind": unit.kind,
                "label": unit.label, "status": status, "attempts": attempts,
                "elapsed_s": 1.0,
                "telemetry": {
                    "wall_s": 1.0, "cpu_s": 0.5, "retries": attempts - 1,
                },
            }
            if status == "ok":
                record["result"] = {"value": 0}
            else:
                record.update(failure_class="crash", error="OSError: down")
            legacy._append(record)
        legacy._append({
            "type": "end", "status": "partial",
            "telemetry": {
                "units": 2, "wall_s": 2.0, "cpu_s": 1.0, "retries": 3,
            },
        })
        rc = status_main([str(legacy.path)], now=legacy.time_source)
        assert rc == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "2 total  1 ok  1 failed  1 pending" in out
        assert "state:    partial" in out
        assert "telemetry: 2 measured unit(s)\n  wall 2.00s, cpu 1.00s" in out

    def test_budget_meta_surfaces(self, tmp_path):
        _, journal, _ = start_run(
            tmp_path, meta={"budget": {"wall_clock_s": 120.0}}
        )
        snapshot = read_snapshot(journal.path, now=journal.time_source)
        assert snapshot.budget == {"wall_clock_s": 120.0}
        text = render_status(snapshot)
        assert "budget:" in text

    def test_torn_trailing_line_tolerated(self, tmp_path):
        campaign, journal, _ = start_run(tmp_path, n=2)
        journal.record_unit(campaign.units[0], "ok", 1.0, result={})
        with journal.path.open("a", encoding="utf-8") as fp:
            fp.write('{"type":"unit","unit_id":"abc","sta')
        snapshot = read_snapshot(journal.path, now=journal.time_source)
        assert snapshot.ok == 1

    def test_status_never_writes_the_journal(self, tmp_path):
        campaign, journal, _ = start_run(tmp_path, n=2)
        journal.record_unit(campaign.units[0], "ok", 1.0, result={})
        # Leave a torn tail: the repair path would truncate it.
        with journal.path.open("a", encoding="utf-8") as fp:
            fp.write('{"type":"unit","unit_id":"abc","sta')
        before = journal.path.read_bytes()
        read_snapshot(journal.path, now=journal.time_source)
        rc = status_main([str(journal.path)], now=journal.time_source)
        assert rc == EXIT_OK
        assert journal.path.read_bytes() == before


class TestResolve:
    def test_accepts_file_dir_and_single_run_root(self, tmp_path):
        _, journal, _ = start_run(tmp_path)
        expected = journal.path
        assert resolve_journal(str(expected)) == expected
        assert resolve_journal(str(expected.parent)) == expected
        assert resolve_journal(str(tmp_path)) == expected

    def test_ambiguous_root_rejected(self, tmp_path):
        start_run(tmp_path)
        second = journal_path(tmp_path, "run2")
        second.parent.mkdir(parents=True)
        second.write_text("{}\n")
        with pytest.raises(JournalError, match="2 runs"):
            resolve_journal(str(tmp_path))

    def test_missing_journal_is_usage_error(self, tmp_path):
        rc = status_main([str(tmp_path / "nope")])
        assert rc == EXIT_USAGE


class TestCli:
    def test_json_snapshot(self, tmp_path, capsys):
        campaign, journal, clock = start_run(tmp_path, n=2)
        clock.advance(2.0)
        journal.record_unit(campaign.units[0], "ok", 2.0, result={})
        journal.record_end("complete")
        rc = status_main([str(journal.path), "--json"], now=clock)
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] == 1
        assert payload["running"] is False
        assert payload["end_status"] == "complete"

    def test_text_render(self, tmp_path, capsys):
        campaign, journal, clock = start_run(tmp_path, n=2)
        clock.advance(1.0)
        journal.record_unit(campaign.units[0], "ok", 1.0, result={})
        rc = status_main([str(journal.path)], now=clock)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "run run1" in out
        assert "1 ok" in out
        assert "state:    running" in out


class TestFollow:
    def test_follow_exits_on_end_record(self, tmp_path, capsys):
        campaign, journal, clock = start_run(tmp_path, n=2)

        steps = iter(
            [
                lambda: journal.record_unit(
                    campaign.units[0], "ok", 1.0, result={}
                ),
                lambda: journal.record_unit(
                    campaign.units[1], "ok", 1.0, result={}
                ),
                lambda: journal.record_end("complete"),
            ]
        )

        def sleep(_seconds):
            clock.advance(1.0)
            next(steps)()

        import sys

        rc = follow(journal.path, 0.01, sys.stdout, now=clock, sleep=sleep)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "0/2 ok" in out  # the live polls
        assert "state:    complete" in out  # the final block

    def test_follow_partial_exit_code(self, tmp_path):
        _, journal, clock = start_run(tmp_path, n=2)

        def sleep(_seconds):
            journal.record_end("partial", reason="budget")

        import io

        rc = follow(journal.path, 0.01, io.StringIO(), now=clock, sleep=sleep)
        assert rc == EXIT_PARTIAL

    def test_follow_gives_up_after_max_polls(self, tmp_path):
        _, journal, clock = start_run(tmp_path, n=2)
        sleeps = []
        import io

        rc = follow(
            journal.path, 0.01, io.StringIO(),
            now=clock, sleep=sleeps.append, max_polls=3,
        )
        assert rc == EXIT_OK
        assert len(sleeps) == 2  # the last poll returns before sleeping

