"""Tests for the sensitivity sweeps' cells."""

import pytest

from repro.harness.runner import ExperimentContext
from repro.harness.sweeps import (
    cache_cell,
    intensity_cell,
    length_cell,
    partition_cell,
    seed_cell,
)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(trace_length=1200, benchmarks=["bfs"])


class TestSeeds:
    def test_rows_per_seed(self):
        rows = [seed_cell("bfs", seed, 1200) for seed in (1, 2)]
        assert [r["seed"] for r in rows] == [1, 2]
        assert all(r["speedup"] > 0 for r in rows)

    def test_speedup_consistent_across_seeds(self):
        rows = [seed_cell("bfs", seed, 1500) for seed in (1, 2, 3)]
        speedups = [r["speedup"] for r in rows]
        assert max(speedups) - min(speedups) < 0.25


class TestLength:
    def test_rows_per_length(self):
        rows = [length_cell("lbm", length, 2023) for length in (600, 1200)]
        assert [r["length"] for r in rows] == [600, 1200]


class TestMetadataCache:
    def test_bigger_caches_do_not_hurt_pssm(self):
        rows = [cache_cell("bfs", size, 1500, 2023) for size in (1024, 4096)]
        by_size = {r["cache_bytes"]: r for r in rows}
        assert by_size[4096]["pssm_ipc"] >= by_size[1024]["pssm_ipc"] - 1e-9


class TestIntensity:
    def test_zero_intensity_is_indifferent(self, ctx):
        assert intensity_cell(ctx, "bfs", 0.0)["speedup"] == pytest.approx(1.0)

    def test_speedup_monotone_in_intensity(self, ctx):
        speedups = [
            intensity_cell(ctx, "bfs", intensity)["speedup"]
            for intensity in (0.0, 0.5, 1.0)
        ]
        assert speedups == sorted(speedups)


class TestPartitions:
    def test_win_persists_across_partition_counts(self):
        rows = [partition_cell("bfs", count, 1200, 2023) for count in (8, 32)]
        assert all(r["speedup"] > 1.0 for r in rows)
