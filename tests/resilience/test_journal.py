"""Append-only run journals: durability, torn tails, fingerprint checks."""

import json

import pytest

from repro.common.errors import JournalError
from repro.resilience import (
    Campaign,
    RunJournal,
    Supervisor,
    WorkUnit,
    journal_path,
)


def make_campaign(name="c", values=(1, 2, 3)):
    return Campaign(
        name=name,
        units=[
            WorkUnit(
                kind="cell",
                params={"value": v},
                runner=lambda v=v: {"value": v},
                label=f"cell[{v}]",
            )
            for v in values
        ],
    )


class TestLifecycle:
    def test_open_writes_run_header(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        header = journal.header()
        assert header["type"] == "run"
        assert header["campaign"] == "c"
        assert header["fingerprint"] == campaign.fingerprint
        assert header["units"] == 3

    def test_reopen_same_campaign_appends(self, tmp_path):
        campaign = make_campaign()
        RunJournal.open(tmp_path, "run1", campaign)
        journal = RunJournal.open(tmp_path, "run1", campaign)
        # Only one header line, no duplicate.
        assert sum(
            1 for r in journal.records() if r.get("type") == "run"
        ) == 1

    def test_resume_refuses_different_campaign(self, tmp_path):
        RunJournal.open(tmp_path, "run1", make_campaign(values=(1, 2)))
        with pytest.raises(JournalError, match="cannot resume"):
            RunJournal.open(tmp_path, "run1", make_campaign(values=(1, 2, 3)))

    def test_resume_refuses_unknown_run_id(self, tmp_path):
        # The supervisor decides between starting fresh and resuming,
        # before any work: a resume with no journal is refused.
        with pytest.raises(JournalError, match="nothing to resume"):
            Supervisor(run_dir=tmp_path, run_id="ghost", resume=True)
        assert not journal_path(tmp_path, "ghost").exists()

    def test_schema_mismatch_rejected(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        path = journal_path(tmp_path, "run1")
        record = json.loads(path.read_text().strip())
        record["schema"] = 999
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(JournalError, match="schema"):
            RunJournal.open(tmp_path, "run1", campaign)


class TestRecords:
    def test_ok_units_carry_results_and_key_order(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        journal.record_unit(
            campaign.units[0], "ok", attempts=1, elapsed_s=0.5,
            result={"zeta": 1, "alpha": 2},
        )
        done = journal.completed()
        record = done[campaign.units[0].unit_id]
        assert record["status"] == "ok"
        # Insertion order survives the journal (reports depend on it).
        assert list(record["result"]) == ["zeta", "alpha"]

    def test_failed_units_carry_no_result(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        journal.record_unit(
            campaign.units[0], "failed", attempts=3, elapsed_s=0.5,
            failure_class="crash", error="boom", result={"ignored": True},
        )
        records = journal.records()
        assert "result" not in records[-1]
        assert journal.completed() == {}

    def test_unit_record_count(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        journal.record_unit(campaign.units[0], "ok", 1, 0.1, result={})
        journal.record_unit(campaign.units[1], "failed", 2, 0.1,
                            failure_class="crash", error="x")
        assert journal.unit_record_count() == 2
        assert journal.unit_record_count(campaign.units[0].unit_id) == 1
        assert journal.unit_record_count("nope") == 0

    def test_end_record(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        journal.record_end("partial", reason="wall-clock budget exhausted")
        end = journal.records()[-1]
        ts = end.pop("ts")
        assert isinstance(ts, float)
        assert end == {
            "type": "end",
            "status": "partial",
            "reason": "wall-clock budget exhausted",
        }


class TestCorruption:
    def test_torn_trailing_line_tolerated(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        journal.record_unit(campaign.units[0], "ok", 1, 0.1, result={"v": 1})
        path = journal_path(tmp_path, "run1")
        with path.open("a", encoding="utf-8") as fp:
            fp.write('{"type":"unit","unit_id":"abc","sta')  # kill -9 here
        done = journal.completed()
        assert set(done) == {campaign.units[0].unit_id}

    def test_reopen_repairs_torn_tail_before_appending(self, tmp_path):
        # Without the repair, the next append would concatenate onto
        # the torn fragment and corrupt the journal mid-file.
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        journal.record_unit(campaign.units[0], "ok", 1, 0.1, result={"v": 1})
        path = journal_path(tmp_path, "run1")
        with path.open("a", encoding="utf-8") as fp:
            fp.write('{"type":"unit","unit_id":"abc","sta')
        resumed = RunJournal.open(tmp_path, "run1", campaign)
        resumed.record_unit(campaign.units[1], "ok", 1, 0.1, result={"v": 2})
        done = resumed.completed()
        assert set(done) == {
            campaign.units[0].unit_id,
            campaign.units[1].unit_id,
        }
        assert resumed.unit_record_count() == 2

    def test_mid_file_corruption_raises(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        journal.record_unit(campaign.units[0], "ok", 1, 0.1, result={"v": 1})
        path = journal_path(tmp_path, "run1")
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:20]  # mangle the header, keep later lines
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            journal.records()

    def test_non_object_line_raises(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        path = journal_path(tmp_path, "run1")
        with path.open("a", encoding="utf-8") as fp:
            fp.write("[1,2,3]\n")
        with pytest.raises(JournalError, match="not an object"):
            journal.records()

    def test_missing_header_raises(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        path = journal_path(tmp_path, "run1")
        path.write_text('{"type":"unit","unit_id":"abc","status":"ok"}\n')
        with pytest.raises(JournalError, match="no run header"):
            journal.header()

    def test_unit_record_without_id_raises(self, tmp_path):
        campaign = make_campaign()
        journal = RunJournal.open(tmp_path, "run1", campaign)
        path = journal_path(tmp_path, "run1")
        with path.open("a", encoding="utf-8") as fp:
            fp.write('{"type":"unit","status":"ok"}\n')
        with pytest.raises(JournalError, match="without an id"):
            journal.completed()
