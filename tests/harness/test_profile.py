"""Integration tests for the instrumented ``profile`` path.

These back the observability acceptance criteria: an enabled run must
export valid metrics JSON with per-interval traffic series, value-cache
hit rate over time, per-family cache counts, and phase timings — and a
disabled run must produce byte-identical simulation results.
"""

import json

import pytest

from repro.gpu.config import VOLTA
from repro.gpu.simulator import replay_events
from repro.harness.__main__ import main
from repro.harness.profile import run_profile
from repro.harness.report import format_sparkline, render_profile
from repro.obs import ObsConfig, ObsSession, activate
from repro.secure.plutus import PlutusEngine

LENGTH = 2000


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    out = tmp_path_factory.mktemp("profile")
    return run_profile(
        "bfs",
        "plutus",
        length=LENGTH,
        obs=ObsConfig(enabled=True, interval_events=256),
        metrics_out=str(out / "metrics.json"),
        trace_out=str(out / "events.jsonl"),
    )


class TestProfileArtifacts:
    def test_metrics_json_is_valid_and_complete(self, profile):
        payload = json.loads(open(profile.metrics_path).read())
        assert payload["schema"] == "repro.obs/3"
        metrics = payload["metrics"]

        # Per-interval traffic series over trace position.
        for group in ("data", "counter", "mac", "bmt", "total"):
            series = metrics[f"traffic.{group}.bytes"]
            assert series["type"] == "sampler"
            assert len(series["positions"]) == len(series["values"]) > 0
            assert series["positions"] == sorted(series["positions"])

        # Value-cache hit rate over time.
        hit_rate = metrics["value_cache.hit_rate"]
        assert len(hit_rate["values"]) > 0
        assert all(0.0 <= v <= 1.0 for v in hit_rate["values"])

        # Hit/miss/eviction counts for all three metadata cache families.
        for family in ("ctr", "mac", "bmt"):
            for suffix in ("sector_hits", "sector_misses", "line_evictions"):
                assert f"cache.{family}.{suffix}" in metrics, family

        # Phase timings are the root spans' aggregates.
        roots = {
            span["path"][0]: span
            for span in payload["spans"] if len(span["path"]) == 1
        }
        for phase in ("build_trace", "simulate_l2", "replay_events"):
            assert roots[phase]["calls"] == 1
            assert roots[phase]["wall_s"] >= 0

    def test_interval_series_sums_to_totals(self, profile):
        """Interval snapshots partition the run: deltas sum to totals."""
        payload = json.loads(open(profile.metrics_path).read())
        series = payload["metrics"]["traffic.total.bytes"]
        assert sum(series["values"]) == pytest.approx(
            profile.result.traffic.total_bytes
        )

    def test_extra_headline_carries_per_stream_traffic(self, profile):
        payload = json.loads(open(profile.metrics_path).read())
        extra = payload["extra"]
        assert extra["benchmark"] == "bfs"
        assert extra["engine"] == "plutus"
        assert sum(extra["bytes_by_stream"].values()) == extra["total_bytes"]
        assert extra["transactions_by_stream"]["data_read"] > 0

    def test_trace_jsonl_is_valid(self, profile):
        names = set()
        with open(profile.trace_path) as handle:
            for line in handle:
                event = json.loads(line)
                assert {"seq", "ts", "name", "kind", "path"} <= set(event)
                names.add(event["name"])
        assert "replay_events" in names

    def test_dashboard_renders(self, profile):
        text = render_profile(profile)
        assert "profile: bfs / plutus" in text
        assert "value-cache hit rate" in text
        assert "traffic over trace position" in text
        assert "phases:" in text

    def test_engine_stats_mirrored_as_gauges(self, profile):
        payload = json.loads(open(profile.metrics_path).read())
        metrics = payload["metrics"]
        assert metrics["engine.fills"]["value"] == profile.result.engine_stats.fills
        assert (
            metrics["engine.writebacks"]["value"]
            == profile.result.engine_stats.writebacks
        )


class TestDisabledModeUnchanged:
    def test_results_identical_with_and_without_obs(self, bfs_log):
        factory = lambda p, s, t: PlutusEngine(p, s, t)
        plain = replay_events(bfs_log, factory, VOLTA)
        with activate(ObsSession(ObsConfig(enabled=True, interval_events=128))):
            instrumented = replay_events(bfs_log, factory, VOLTA)
        assert plain.traffic.bytes_by_stream == instrumented.traffic.bytes_by_stream
        assert (
            plain.traffic.transactions_by_stream
            == instrumented.traffic.transactions_by_stream
        )
        assert plain.engine_stats == instrumented.engine_stats

    def test_default_obs_config_is_off(self):
        assert not ObsConfig().enabled

    def test_profile_rejects_disabled_config(self):
        with pytest.raises(ValueError):
            run_profile("bfs", obs=ObsConfig(enabled=False))


class TestProfileCli:
    def test_profile_subcommand(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        rc = main([
            "profile", "bfs",
            "--engine", "pssm",
            "--length", "800",
            "--interval", "128",
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: bfs / pssm" in out
        payload = json.loads(metrics.read_text())
        assert "traffic.total.bytes" in payload["metrics"]
        # PSSM has no value cache: the hit-rate series stays empty.
        assert payload["metrics"]["value_cache.hit_rate"]["values"] == []

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "bfs", "--engine", "doom"])

    def test_default_run_records_every_event(self, capsys, tmp_path):
        # The default profile replays in this process, so per-event
        # records and spans reach the exports and interval snapshots
        # fall on global trace positions.
        rc = main([
            "profile", "bfs",
            "--length", "800",
            "--interval", "256",
            "--trace-events",
            "--span-detail",
            "--metrics-out", str(tmp_path / "m.json"),
            "--trace-out", str(tmp_path / "t.jsonl"),
            "--chrome-out", str(tmp_path / "c.json"),
        ])
        assert rc == 0
        capsys.readouterr()
        with open(tmp_path / "t.jsonl") as handle:
            traced = {json.loads(line)["name"] for line in handle}
        assert "mem.fill" in traced
        chrome = json.loads((tmp_path / "c.json").read_text())
        spans = {e["name"] for e in chrome["traceEvents"]}
        assert "engine.fill" in spans
        # The value cache is its own layer under span detail.
        assert "value_cache.fill" in spans
        metrics = json.loads((tmp_path / "m.json").read_text())["metrics"]
        positions = metrics["traffic.total.bytes"]["positions"]
        assert len(positions) >= 2
        # Every snapshot but the tail one lands on an interval boundary.
        assert all(p % 256 == 0 for p in positions[:-1])
        assert positions[-1] == metrics["replay.events"]["value"]

    def test_interval_windows_hold_exactly_their_events(self, capsys,
                                                        tmp_path):
        # Replay cuts its runs at every interval boundary and records a
        # point at the end of each window plus one for the tail, so no
        # boundary may be skipped (a run straddling one would skip it)
        # and every point holds exactly the 32-byte events since the
        # previous point (a compacted point labelled with the wrong end
        # of its windows would not). Interval 8 records 568 points, so
        # its sampler compacts once.
        for interval in (256, 8):
            out = tmp_path / f"m{interval}.json"
            rc = main([
                "profile", "bfs",
                "--engine", "nosec",
                "--length", "2000",
                "--interval", str(interval),
                "--metrics-out", str(out),
            ])
            assert rc == 0
            capsys.readouterr()
            data = json.loads(out.read_text())["metrics"]["traffic.data.bytes"]
            assert len(data["values"]) > 2
            assert (data["compactions"] > 0) == (interval == 8)
            events = data["positions"][-1]
            assert data["recorded"] == events // interval + 1, interval
            if interval == 256:
                assert data["positions"][:-1] == [
                    256 * (i + 1) for i in range(len(data["positions"]) - 1)
                ]
                assert data["values"][:-1] == (
                    [32 * 256] * (len(data["values"]) - 1)
                )
            previous = 0
            for position, value in zip(data["positions"], data["values"]):
                assert value == 32 * (position - previous), interval
                previous = position


class TestSparkline:
    def test_empty(self):
        assert format_sparkline([]) == "(no samples)"

    def test_constant_zero(self):
        assert set(format_sparkline([0, 0, 0])) == {" "}

    def test_peak_maps_to_top_of_ramp(self):
        line = format_sparkline([0.0, 1.0], peak=1.0)
        assert line[-1] == "@"

    def test_downsamples_to_width(self):
        assert len(format_sparkline(list(range(1000)), width=40)) == 40

    def test_small_nonzero_still_visible(self):
        line = format_sparkline([1000.0, 1.0])
        assert line[1] != " "
