"""The ``bench`` subcommand and the trajectory regression gate."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.common.errors import EXIT_OK, EXIT_USAGE, ReproError
from repro.harness.bench import (
    DEFAULT_ENGINES,
    TRAJECTORY_SCHEMA,
    append_entry,
    bench_main,
    environment_fingerprint,
    load_trajectory,
    render_bench,
    run_bench,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def entry():
    """One real (tiny) measurement, shared across the module."""
    return run_bench("bfs", DEFAULT_ENGINES[:3], length=200, repeats=1)


class TestRunBench:
    def test_entry_shape_and_positive_throughput(self, entry):
        assert entry["benchmark"] == "bfs"
        assert entry["length"] == 200
        assert entry["events"] > 0
        assert entry["calibration_seconds"] > 0
        assert entry["env"] == environment_fingerprint()
        assert set(entry["engines"]) == set(DEFAULT_ENGINES[:3])
        for row in entry["engines"].values():
            assert row["serial_eps"] > 0

    def test_entry_is_json_serializable(self, entry):
        assert json.loads(json.dumps(entry))["events"] == entry["events"]

    def test_entry_carries_no_sharded_fields(self, entry):
        # Replay has one (serial) path; the sharded_* row fields and the
        # entry's workers field exist only in older trajectory entries.
        assert "workers" not in entry
        for row in entry["engines"].values():
            assert not [key for key in row if key.startswith("sharded_")]

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError, match="bogus"):
            run_bench("bfs", ["bogus"], length=200)

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            run_bench("bfs", ["nosec"], length=200, repeats=0)

    def test_render_table(self, entry):
        text = render_bench(entry)
        assert "== bench: bfs x 3 engines" in text
        for key in DEFAULT_ENGINES[:3]:
            assert key in text
        assert "calibration:" in text
        assert "columnar path" in text

    def test_entry_records_the_columnar_path(self, entry):
        # Replay has one path; entries keep naming it so the regression
        # gate still compares them with the committed columnar entries.
        assert entry["path"] == "columnar"
        for row in entry["engines"].values():
            assert "batched" not in row

    def test_unknown_path_rejected(self):
        # Replay has one path, so the option that picked one is gone:
        # argparse rejects it as a usage error.
        with pytest.raises(SystemExit) as exc:
            bench_main(["--path", "columnar", "--trajectory", ""])
        assert exc.value.code == EXIT_USAGE


class TestTrajectoryFile:
    def test_missing_file_loads_empty_shell(self, tmp_path):
        payload = load_trajectory(tmp_path / "absent.json")
        assert payload == {"schema": TRAJECTORY_SCHEMA, "entries": []}

    def test_append_roundtrip(self, tmp_path, entry):
        path = tmp_path / "traj.json"
        assert append_entry(path, entry) == 1
        assert append_entry(path, entry) == 2
        payload = load_trajectory(path)
        assert [e["events"] for e in payload["entries"]] == [
            entry["events"], entry["events"]
        ]

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text('{"schema": "other/9", "entries": []}')
        with pytest.raises(ReproError, match="other/9"):
            load_trajectory(path)

    def test_missing_entries_list_rejected(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"schema": TRAJECTORY_SCHEMA}))
        with pytest.raises(ReproError, match="entries"):
            load_trajectory(path)

    def test_committed_trajectory_is_loadable_and_complete(self):
        """The committed file must carry serial eps for >= 3 engines."""
        payload = load_trajectory(REPO_ROOT / "benchmarks" / "BENCH_0001.json")
        assert payload["entries"], "committed trajectory has no entries"
        latest = payload["entries"][-1]
        assert len(latest["engines"]) >= 3
        for row in latest["engines"].values():
            assert row["serial_eps"] > 0


class TestCompareTrajectory:
    def make_entry(self, eps, calibration=0.01, **overrides):
        entry = {
            "benchmark": "bfs",
            "length": 200,
            "seed": 2023,
            "calibration_seconds": calibration,
            "engines": {"plutus": {"serial_eps": eps}},
        }
        entry.update(overrides)
        return entry

    def test_equal_throughput_is_ok(self):
        mod = load_check_regression()
        base = self.make_entry(1000.0)
        report = mod.compare_trajectory(
            self.make_entry(1000.0), {"entries": [base]}, tolerance=1.5
        )
        assert report["regressions"] == []
        assert all(r["status"] == "ok" for r in report["rows"])

    def test_calibration_normalizes_machine_speed(self):
        # Half the throughput on a machine whose calibration loop takes
        # twice as long is the same normalized speed: not a regression.
        mod = load_check_regression()
        base = self.make_entry(1000.0, calibration=0.01)
        fresh = self.make_entry(500.0, calibration=0.02)
        report = mod.compare_trajectory(
            fresh, {"entries": [base]}, tolerance=1.5
        )
        assert report["regressions"] == []
        assert report["rows"][0]["normalized_ratio"] == pytest.approx(1.0)

    def test_slowdown_beyond_tolerance_regresses(self):
        mod = load_check_regression()
        base = self.make_entry(1000.0)
        # Older committed entries also carry sharded_eps; only the
        # serial throughput is gated.
        base["engines"]["plutus"]["sharded_eps"] = 1000.0
        report = mod.compare_trajectory(
            self.make_entry(400.0), {"entries": [base]}, tolerance=1.5
        )
        assert report["regressions"] == ["plutus:serial_eps"]
        assert [r["name"] for r in report["rows"]] == ["plutus:serial_eps"]

    def test_unknown_engine_is_new_not_regression(self):
        mod = load_check_regression()
        base = self.make_entry(1000.0)
        fresh = self.make_entry(1000.0)
        fresh["engines"]["experimental"] = {"serial_eps": 10.0}
        report = mod.compare_trajectory(
            fresh, {"entries": [base]}, tolerance=1.5
        )
        assert report["regressions"] == []
        new = [r for r in report["rows"] if r["status"] == "new"]
        assert [r["name"] for r in new] == ["experimental:serial_eps"]

    def test_no_comparable_entry_gates_nothing(self):
        mod = load_check_regression()
        base = self.make_entry(1000.0, length=999999)
        report = mod.compare_trajectory(
            self.make_entry(100.0), {"entries": [base]}, tolerance=1.5
        )
        assert report["reference"] is None
        assert report["rows"] == []
        assert "no comparable" in report["note"]

    def test_latest_comparable_entry_wins(self):
        mod = load_check_regression()
        old = self.make_entry(4000.0)  # would regress vs this
        new = self.make_entry(1000.0)
        report = mod.compare_trajectory(
            self.make_entry(1000.0),
            {"entries": [old, new]},
            tolerance=1.5,
        )
        assert report["regressions"] == []

    def test_regressions_compare_same_path_only(self):
        # A columnar entry is gated against the latest columnar entry,
        # not against the (much slower) object-path history.
        mod = load_check_regression()
        object_base = self.make_entry(1000.0)
        columnar_base = self.make_entry(10000.0, path="columnar")
        fresh = self.make_entry(9000.0, path="columnar")
        report = mod.compare_trajectory(
            fresh, {"entries": [object_base, columnar_base]}, tolerance=1.5
        )
        assert report["path"] == "columnar"
        assert report["regressions"] == []


class TestImprovementGate:
    def make_entry(self, eps, calibration=0.01, **overrides):
        """An entry; without a ``path`` it reads as an object-path one."""
        entry = {
            "benchmark": "bfs",
            "length": 200,
            "seed": 2023,
            "calibration_seconds": calibration,
            "engines": {"nosec": {"serial_eps": eps}},
        }
        entry.update(overrides)
        return entry

    def test_object_entries_never_arm_the_gate(self):
        mod = load_check_regression()
        report = mod.compare_trajectory(
            self.make_entry(1000.0),
            {"entries": [self.make_entry(1000.0)]},
            tolerance=1.5,
        )
        assert "improvement" not in report

    def test_columnar_speedup_satisfies_gate(self):
        mod = load_check_regression()
        object_ref = self.make_entry(1000.0)
        fresh = self.make_entry(5000.0, path="columnar")
        report = mod.compare_trajectory(
            fresh, {"entries": [object_ref]}, tolerance=1.5,
            min_improvement=3.0,
        )
        gate = report["improvement"]
        assert gate["failures"] == []
        [row] = gate["rows"]
        assert row["status"] == "improved"
        assert row["normalized_ratio"] == pytest.approx(5.0)

    def test_insufficient_speedup_fails_gate(self):
        mod = load_check_regression()
        object_ref = self.make_entry(1000.0)
        fresh = self.make_entry(2000.0, path="columnar")
        report = mod.compare_trajectory(
            fresh, {"entries": [object_ref]}, tolerance=1.5,
            min_improvement=3.0,
        )
        assert report["improvement"]["failures"] == ["nosec:serial_eps"]

    def test_gate_is_calibration_normalized(self):
        # 3x raw eps on a machine that is 2x faster is only 1.5x real
        # improvement: the gate must see through machine speed.
        mod = load_check_regression()
        object_ref = self.make_entry(1000.0, calibration=0.02)
        fresh = self.make_entry(3000.0, calibration=0.01, path="columnar")
        report = mod.compare_trajectory(
            fresh, {"entries": [object_ref]}, tolerance=1.5,
            min_improvement=3.0,
        )
        [row] = report["improvement"]["rows"]
        assert row["normalized_ratio"] == pytest.approx(1.5)
        assert report["improvement"]["failures"] == ["nosec:serial_eps"]

    def test_no_engine_rows_fails_gate(self):
        mod = load_check_regression()
        object_ref = self.make_entry(1000.0)
        fresh = self.make_entry(5000.0, path="columnar", engines={})
        report = mod.compare_trajectory(
            fresh, {"entries": [object_ref]}, tolerance=1.5,
        )
        assert any(
            "no engine rows" in failure
            for failure in report["improvement"]["failures"]
        )

    def test_every_row_is_gated(self):
        # Rows of older entries flagged ``batched: false`` are no
        # longer exempt: every engine must show the speedup.
        mod = load_check_regression()
        object_ref = self.make_entry(1000.0)
        fresh = self.make_entry(2000.0, path="columnar")
        fresh["engines"]["nosec"]["batched"] = False
        report = mod.compare_trajectory(
            fresh, {"entries": [object_ref]}, tolerance=1.5,
            min_improvement=3.0,
        )
        assert report["improvement"]["failures"] == ["nosec:serial_eps"]

    def test_missing_object_reference_noted_not_failed(self):
        mod = load_check_regression()
        fresh = self.make_entry(5000.0, path="columnar")
        report = mod.compare_trajectory(
            fresh,
            {"entries": [self.make_entry(4000.0, path="columnar")]},
            tolerance=1.5,
        )
        assert "improvement" not in report
        assert "not armed" in report["improvement_note"]

    def test_committed_trajectory_satisfies_the_gate(self):
        """The committed columnar entry must demonstrate the speedup."""
        mod = load_check_regression()
        payload = load_trajectory(
            REPO_ROOT / "benchmarks" / "BENCH_0001.json"
        )
        latest = payload["entries"][-1]
        assert latest.get("path") == "columnar"
        report = mod.compare_trajectory(
            latest, {"entries": payload["entries"][:-1]}, tolerance=1.5,
            min_improvement=3.0,
        )
        assert report["improvement"]["failures"] == []


class TestTrajectoryGateCli:
    def _entry(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({
            "benchmark": "bfs", "length": 200, "seed": 2023,
            "calibration_seconds": 0.01,
            "engines": {"plutus": {"serial_eps": 1000.0}},
        }))
        return path

    def _trajectory(self, tmp_path, entries):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(
            {"schema": TRAJECTORY_SCHEMA, "entries": entries}
        ))
        return path

    def test_missing_entry_file_is_usage_error(self, tmp_path, capsys):
        mod = load_check_regression()
        with pytest.raises(SystemExit) as excinfo:
            mod.main([
                "--trajectory-entry", str(tmp_path / "absent.json"),
                "--output", str(tmp_path / "out.json"),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err and "absent.json" in err

    def test_unparseable_trajectory_is_usage_error(self, tmp_path, capsys):
        mod = load_check_regression()
        bad = tmp_path / "traj.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            mod.main([
                "--trajectory-entry", str(self._entry(tmp_path)),
                "--trajectory", str(bad),
                "--output", str(tmp_path / "out.json"),
            ])
        assert excinfo.value.code == 2
        assert "unreadable" in capsys.readouterr().err

    def test_empty_trajectory_is_usage_error(self, tmp_path, capsys):
        mod = load_check_regression()
        rc = mod.main([
            "--trajectory-entry", str(self._entry(tmp_path)),
            "--trajectory", str(self._trajectory(tmp_path, [])),
            "--output", str(tmp_path / "out.json"),
        ])
        assert rc == 2
        assert "no entries" in capsys.readouterr().err

    def test_clean_comparison_exits_zero(self, tmp_path):
        mod = load_check_regression()
        base = json.loads(self._entry(tmp_path).read_text())
        rc = mod.main([
            "--trajectory-entry", str(self._entry(tmp_path)),
            "--trajectory", str(self._trajectory(tmp_path, [base])),
            "--output", str(tmp_path / "out.json"),
        ])
        assert rc == 0

    def test_failed_improvement_gate_exits_one(self, tmp_path, capsys):
        mod = load_check_regression()
        base = json.loads(self._entry(tmp_path).read_text())
        entry = tmp_path / "columnar.json"
        payload = json.loads(self._entry(tmp_path).read_text())
        payload["path"] = "columnar"
        payload["engines"]["plutus"]["serial_eps"] = 1500.0
        entry.write_text(json.dumps(payload))
        rc = mod.main([
            "--trajectory-entry", str(entry),
            "--trajectory", str(self._trajectory(tmp_path, [base])),
            "--output", str(tmp_path / "out.json"),
            "--min-improvement", "3.0",
        ])
        assert rc == 1
        assert "IMPROVEMENT GATE FAILED" in capsys.readouterr().err


class TestCli:
    def test_unknown_engine_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--engines", "bogus"])
        assert excinfo.value.code == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_unknown_benchmark_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--benchmark", "bogus"])
        assert excinfo.value.code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_quick_measures_without_recording(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = bench_main(
            ["--quick", "--length", "200", "--engines", "nosec",
             "--trajectory", "", "--entry-out", "entry.json", "--json"]
        )
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["repeats"] == 1  # --quick forces a single repeat
        assert payload["length"] == 200  # explicit --length wins over quick
        on_disk = json.loads((tmp_path / "entry.json").read_text())
        assert on_disk["events"] == payload["events"]
        # '' trajectory: nothing recorded
        assert not (tmp_path / "benchmarks").exists()

    def test_default_records_into_trajectory(self, tmp_path, capsys):
        traj = tmp_path / "traj.json"
        rc = bench_main(
            ["--quick", "--length", "200", "--engines", "nosec",
             "--trajectory", str(traj)]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "== bench: bfs x 1 engines" in out
        assert f"trajectory: {traj}" in out
        assert len(load_trajectory(traj)["entries"]) == 1
