"""Robustness sweeps: the headline result must not be an artifact.

The paper reports single-configuration numbers; these sweeps show the
reproduction's Plutus-vs-PSSM speedup is stable across trace seeds,
grows-then-stabilizes with window length, and behaves sensibly across
the metadata-cache budget and the performance-model blend.
"""

import statistics

from conftest import run_once

from repro.harness.report import format_table
from repro.harness.sweeps import (
    cache_cell,
    intensity_cell,
    length_cell,
    seed_cell,
)

BENCH = "bfs"
LENGTH = 8000
SEED = 2023


def test_sweep_seed_robustness(benchmark, ctx):
    rows = run_once(
        benchmark, lambda: [seed_cell(BENCH, s, LENGTH) for s in (1, 2, 3, 4)]
    )
    print(format_table(rows))
    speedups = [r["speedup"] for r in rows]
    assert min(speedups) > 1.05          # the win survives every seed
    spread = max(speedups) - min(speedups)
    assert spread < 0.15                 # and is stable across seeds
    assert statistics.mean(speedups) > 1.10


def test_sweep_window_convergence(benchmark, ctx):
    rows = run_once(
        benchmark,
        lambda: [length_cell(BENCH, n, SEED) for n in (2000, 6000, 12000)],
    )
    print(format_table(rows))
    assert all(r["speedup"] > 1.0 for r in rows)


def test_sweep_metadata_cache(benchmark, ctx):
    rows = run_once(
        benchmark,
        lambda: [
            cache_cell(BENCH, size, LENGTH, SEED)
            for size in (1024, 2048, 8192)
        ],
    )
    print(format_table(rows))
    by_size = {r["cache_bytes"]: r for r in rows}
    # Bigger metadata caches help both designs...
    assert by_size[8192]["pssm_ipc"] >= by_size[1024]["pssm_ipc"]
    # ...and Plutus keeps a clear win at every budget.
    assert all(r["speedup"] > 1.05 for r in rows)


def test_sweep_memory_intensity(benchmark, ctx):
    rows = run_once(
        benchmark,
        lambda: [
            intensity_cell(ctx, BENCH, i) for i in (0.0, 0.25, 0.5, 0.75, 1.0)
        ],
    )
    print(format_table(rows))
    by_i = {r["memory_intensity"]: r for r in rows}
    # Compute-bound kernels are indifferent; fully memory-bound ones
    # realize the full traffic saving.
    assert by_i[0.0]["speedup"] == 1.0
    assert by_i[1.0]["speedup"] == max(r["speedup"] for r in rows)
