"""Per-unit resource telemetry: measurement, roll-up, journal flow."""

import pytest

from repro.resilience import (
    Campaign,
    Supervisor,
    UnitTelemetry,
    WorkUnit,
    render_campaign_telemetry,
    rollup,
)


class TestUnitTelemetry:
    def test_as_dict_rounds_and_omits_missing_rss(self):
        tele = UnitTelemetry(wall_s=1.23456789, cpu_s=0.987654321, rss_mb=None)
        payload = tele.as_dict()
        assert payload == {
            "wall_s": 1.234568,
            "cpu_s": 0.987654,
        }

    def test_rss_included_when_measured(self):
        payload = UnitTelemetry(1.0, 0.5, rss_mb=42.3456).as_dict()
        assert payload["rss_mb"] == 42.346

    def test_from_dict_tolerates_missing_fields(self):
        tele = UnitTelemetry.from_dict({})
        assert tele.wall_s == 0.0
        assert tele.cpu_s == 0.0
        assert tele.rss_mb is None


class TestRollup:
    def test_sums_and_peaks(self):
        summary = rollup(
            [
                {"wall_s": 1.0, "cpu_s": 0.5, "rss_mb": 100.0},
                {"wall_s": 2.0, "cpu_s": 1.5, "rss_mb": 250.0},
                # Journals written while units could retry count them.
                {"wall_s": 0.5, "cpu_s": 0.25, "retries": 2},
            ]
        )
        assert summary == {
            "units": 3,
            "wall_s": pytest.approx(3.5),
            "cpu_s": pytest.approx(2.25),
            "peak_rss_mb": 250.0,
        }

    def test_none_entries_are_unmeasured(self):
        summary = rollup([None, {"wall_s": 1.0}, None])
        assert summary["units"] == 1

    def test_empty_rollup_reports_zero_without_rss(self):
        summary = rollup([])
        assert summary == {"units": 0, "wall_s": 0.0, "cpu_s": 0.0}


class TestRender:
    def test_zero_units_is_one_line(self):
        assert render_campaign_telemetry({"units": 0}) == (
            "telemetry: 0 measured unit(s)"
        )

    def test_full_block(self):
        text = render_campaign_telemetry(
            {
                "units": 3,
                "wall_s": 75.25,
                "cpu_s": 4.5,
                "peak_rss_mb": 120.06,
            }
        )
        assert text.splitlines() == [
            "telemetry: 3 measured unit(s)",
            "  wall 1m15.2s, cpu 4.50s",
            "  peak rss 120.1 MiB",
        ]


def make_campaign(runners):
    return Campaign(
        name="tele",
        units=[
            WorkUnit(kind="cell", params={"i": i}, runner=fn, label=f"u{i}")
            for i, fn in enumerate(runners)
        ],
    )


class FakeClocks:
    """Deterministic wall/CPU clocks that tick on every read."""

    def __init__(self, wall_step=1.0, cpu_step=0.25):
        self.wall = 0.0
        self.cpu = 0.0
        self.wall_step = wall_step
        self.cpu_step = cpu_step

    def read_wall(self):
        self.wall += self.wall_step
        return self.wall

    def read_cpu(self):
        self.cpu += self.cpu_step
        return self.cpu


class TestSupervisorMeasurement:
    def make_supervisor(self, **kwargs):
        clocks = FakeClocks()
        return Supervisor(
            clock=clocks.read_wall,
            cpu_clock=clocks.read_cpu,
            rss_probe=lambda: 64.0,
            **kwargs,
        )

    def test_ok_unit_measured_deterministically(self):
        supervisor = self.make_supervisor()
        outcome = supervisor.run(make_campaign([lambda: {"v": 1}]))
        (unit,) = outcome.outcomes
        assert unit.telemetry == {"wall_s": 1.0, "cpu_s": 0.25, "rss_mb": 64.0}

    def test_failed_unit_still_measured(self):
        from repro.common.errors import ReproError

        def broken():
            raise ReproError("deterministic")

        supervisor = self.make_supervisor()
        outcome = supervisor.run(make_campaign([broken]))
        (unit,) = outcome.outcomes
        assert unit.status == "failed"
        assert unit.telemetry == {"wall_s": 1.0, "cpu_s": 0.25, "rss_mb": 64.0}

    def test_campaign_rollup_on_outcome(self):
        supervisor = self.make_supervisor()
        outcome = supervisor.run(
            make_campaign([lambda: {"v": 1}, lambda: {"v": 2}])
        )
        assert outcome.telemetry["units"] == 2
        assert outcome.telemetry["peak_rss_mb"] == 64.0
        assert outcome.telemetry["wall_s"] == pytest.approx(
            sum(u.telemetry["wall_s"] for u in outcome.outcomes)
        )

    def test_journal_records_carry_telemetry(self, tmp_path):
        from repro.resilience import RunJournal, journal_path

        campaign = make_campaign([lambda: {"v": 1}])
        supervisor = self.make_supervisor(run_dir=tmp_path, run_id="run1")
        supervisor.run(campaign)
        records = RunJournal(journal_path(tmp_path, "run1"), "run1").records()
        unit_record = next(r for r in records if r["type"] == "unit")
        assert "telemetry" in unit_record
        assert unit_record["telemetry"]["rss_mb"] == 64.0
        end_record = next(r for r in records if r["type"] == "end")
        assert end_record["telemetry"]["units"] == 1

    def test_skipped_units_carry_no_telemetry(self, tmp_path):
        campaign = make_campaign([lambda: {"v": 1}])
        self.make_supervisor(run_dir=tmp_path, run_id="run1").run(campaign)
        outcome = self.make_supervisor(
            run_dir=tmp_path, run_id="run1", resume=True
        ).run(campaign)
        (unit,) = outcome.outcomes
        assert unit.status == "skipped"
        assert unit.telemetry is None
        assert outcome.telemetry["units"] == 0
