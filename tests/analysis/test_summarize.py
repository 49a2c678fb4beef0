"""Tests for aggregation helpers."""

import math

import pytest

from repro.analysis.summarize import (
    arithmetic_mean,
    geometric_mean,
    improvement_summary,
    normalize_by,
    percent,
    stack_fractions,
    transpose,
)


class TestMeans:
    def test_arithmetic(self):
        assert arithmetic_mean([1, 2, 3]) == 2

    def test_geometric(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([2, 2, 2]) == pytest.approx(2.0)

    def test_geomean_below_mean_for_spread(self):
        values = [0.5, 2.0]
        assert geometric_mean(values) < arithmetic_mean(values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geomean_requires_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestFormatting:
    def test_percent(self):
        assert percent(0.1686) == "+16.86%"
        assert percent(-0.05, digits=1) == "-5.0%"


class TestSummaries:
    def test_improvement_summary(self):
        summary = improvement_summary({"a": 1.1, "b": 1.5, "c": 0.9})
        assert summary["min"] == 0.9
        assert summary["max"] == 1.5
        assert summary["mean"] == pytest.approx((1.1 + 1.5 + 0.9) / 3)

    def test_improvement_summary_with_non_positive_value(self):
        summary = improvement_summary({"a": 0.5, "b": -0.03})
        assert math.isnan(summary["geomean"])
        assert summary["mean"] == pytest.approx(0.235)
        assert summary["min"] == -0.03
        assert summary["max"] == 0.5

    def test_normalize_by(self):
        out = normalize_by({"a": 10, "b": 20}, {"a": 5, "b": 10, "c": 1})
        assert out == {"a": 2.0, "b": 2.0}

    def test_normalize_skips_zero_baseline(self):
        assert normalize_by({"a": 10}, {"a": 0}) == {}

    def test_stack_fractions(self):
        out = stack_fractions({"data": 75, "mac": 25})
        assert out["data"] == 0.75
        assert sum(out.values()) == pytest.approx(1.0)

    def test_stack_fractions_of_nothing(self):
        assert stack_fractions({"x": 0}) == {"x": 0.0}

    def test_transpose(self):
        rows = [
            {"benchmark": "a", "ipc": 1.0, "traffic": 5.0},
            {"benchmark": "b", "ipc": 2.0, "traffic": 6.0},
        ]
        out = transpose(rows, key_field="benchmark")
        assert out == {"ipc": [1.0, 2.0], "traffic": [5.0, 6.0]}
