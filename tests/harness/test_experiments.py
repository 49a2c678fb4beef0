"""Tests for the per-figure experiment runners."""

import math

import pytest

from repro.harness.experiments import EXPERIMENTS, run_all
from repro.harness.runner import ExperimentContext

BENCHES = ["bfs", "lbm"]


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(trace_length=1500, benchmarks=BENCHES)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {
            "fig06", "fig07", "fig09", "fig10", "fig15", "fig16",
            "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "eq1",
        }
        assert expected <= set(EXPERIMENTS)
        # Extensions beyond the paper's artifacts are also registered.
        assert {"ext-storage", "ext-forgery"} <= set(EXPERIMENTS)

    def test_run_all_produces_every_result(self, ctx):
        results = run_all(ctx)
        assert set(results) == set(EXPERIMENTS)


class TestStructure:
    @pytest.mark.parametrize("key", sorted(EXPERIMENTS))
    def test_result_shape(self, ctx, key):
        result = EXPERIMENTS[key](ctx)
        assert result.experiment_id == key
        assert result.title
        assert result.rows
        assert result.paper_reference

    def test_benchmark_experiments_cover_roster(self, ctx):
        result = EXPERIMENTS["fig06"](ctx)
        assert [r["benchmark"] for r in result.rows] == BENCHES


class TestFigureSemantics:
    def test_fig06_security_costs_performance(self, ctx):
        result = EXPERIMENTS["fig06"](ctx)
        assert all(r["ipc_normalized"] < 1.0 for r in result.rows)

    def test_fig07_breakdown_has_all_streams(self, ctx):
        result = EXPERIMENTS["fig07"](ctx)
        for row in result.rows:
            assert {"data", "counter", "mac", "bmt"} <= set(row)

    def test_fig09_scenario_ordering(self, ctx):
        result = EXPERIMENTS["fig09"](ctx)
        for row in result.rows:
            assert row["masked"] >= row["halves"] >= row["full"]

    def test_fig10_fractions_sum_to_one(self, ctx):
        result = EXPERIMENTS["fig10"](ctx)
        for row in result.rows:
            assert row["read_fraction"] + row["write_fraction"] == pytest.approx(1.0)

    def test_fig15_value_verification_helps(self, ctx):
        result = EXPERIMENTS["fig15"](ctx)
        assert result.summary["mean"] > 1.0

    def test_fig16_reports_three_designs(self, ctx):
        result = EXPERIMENTS["fig16"](ctx)
        for row in result.rows:
            assert {"design_128B", "design_32B_leaf", "design_32B_all"} <= set(row)

    def test_fig17_reports_three_designs(self, ctx):
        result = EXPERIMENTS["fig17"](ctx)
        for row in result.rows:
            assert {"compact_2bit", "compact_3bit", "compact_adaptive"} <= set(row)

    def test_fig18_plutus_beats_pssm(self, ctx):
        result = EXPERIMENTS["fig18"](ctx)
        assert result.summary["mean"] > 1.0
        for row in result.rows:
            assert row["speedup_vs_pssm"] >= 0.95  # never materially worse

    def test_fig19_metadata_reduced(self, ctx):
        result = EXPERIMENTS["fig19"](ctx)
        assert result.summary["mean"] > 0

    def test_fig19_reports_a_negative_reduction(self):
        # In a 200-access window Plutus moves more metadata than PSSM on
        # hotspot; the row says so and the summary's geomean is nan.
        short = ExperimentContext(trace_length=200, benchmarks=["hotspot"])
        result = EXPERIMENTS["fig19"](short)
        assert result.rows[0]["reduction"] < 0
        assert math.isnan(result.summary["geomean"])
        assert result.summary["mean"] == result.rows[0]["reduction"]

    def test_fig20_value_check_still_matters_without_tree(self, ctx):
        result = EXPERIMENTS["fig20"](ctx)
        assert result.summary["mean"] > 1.0

    def test_fig21_larger_caches_never_hurt_much(self, ctx):
        result = EXPERIMENTS["fig21"](ctx)
        for row in result.rows:
            assert row["entries_1024"] >= row["entries_64"] - 0.02

    def test_fig22_plutus_power_below_pssm(self, ctx):
        result = EXPERIMENTS["fig22"](ctx)
        for row in result.rows:
            assert row["plutus_power_overhead"] < row["pssm_power_overhead"]

    def test_eq1_headline_row(self, ctx):
        result = EXPERIMENTS["eq1"](ctx)
        at_256 = next(r for r in result.rows if r["cache_entries"] == 256)
        assert at_256["hits_required"] == 3
        assert at_256["beats_8B_mac"]
