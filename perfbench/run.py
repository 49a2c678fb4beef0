"""Benchmark of the paper-experiment run, one workload per run.

From the root of a checkout:

    python3 perfbench/run.py --workload replay-reads --seed 2023 --seconds 36 --trace 0

The workloads (spec.py) split the 15 experiments of
``python -m repro.harness`` three ways. Each repetition runs in a fresh
process (rep.py) with the disk cache off, so it pays trace generation,
the L2 pass and counter warmup. Everything is serial: one client in a
closed loop, with caches starting empty.

``--trace 0`` repeats untraced repetitions for ``--seconds`` and
reports the medians over them of ``norm_cpu_s``, ``setup_s`` and
``peak_rss_mb``. ``norm_cpu_s`` is the CPU time of a repetition, first
experiment call to last result, counting child processes, scaled to
the reference host speed; ``setup_s`` is the same for process start to
a constructed context. The run is serial, so CPU time tracks the wall
time a user waits for, without the wait for a CPU that other tenants
of a shared host add to the wall clock. Those tenants also slow the
CPU itself, by up to 70% and in phases of any length, so each
repetition samples the host's speed on a fixed reference loop as it
goes and scales its CPU time by it (``HostSpeed`` in rep.py). The
unscaled CPU and wall times are printed beside it.
``--trace 1`` makes untraced repetitions, then one traced repetition
(layers.py), and reports the per-layer breakdown; ``trace.overhead_s``
is the traced wall time minus the untraced median.

Each experiment call is one operation. It fails when it raises or when
its result digest differs from the reference recorded for the seed and
trace length (references.json, written by record.py). For a seed
without a reference the run's first repetition serves as one, and the
run says "unverified". The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
import spec
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A traced repetition's time over an untraced one, for planning a run.
TRACED_SLOWDOWN = 1.5
#: Every process a run starts has ended this many seconds after it began.
RUN_LIMIT_S = 170.0
#: Settings a run must not inherit from its caller: the program's own,
#: and whether Python caches bytecode, which moves ``setup_s`` twofold.
SCRUBBED_ENV = ("REPRO_TRACE_LEN", "REPRO_CACHE_DIR",
                "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
#: Where runs keep their files: spans of traced repetitions, and the
#: bytecode cache, so that every repetition after a checkout's first
#: starts from cached bytecode, as a user's second run does.
WORK_DIR = ROOT / ".perfbench"
#: The paper's means over its full 14-benchmark roster, printed beside
#: the simulated values as a reference only: the profiles are calibrated
#: stand-ins, so no error against them is computed.
PAPER_MEANS = {"fig18": 1.1686, "fig19": 0.4814}
#: Counts the traced repetition reports per layer.
COUNT_KEYS = (
    "workloads.build_trace.accesses", "workloads.study.sectors",
    "workloads.study.reuse_masked", "analysis.forgery.trials",
    "gpu.simulate_l2.dram_events", "gpu.replay.events",
    "secure.warmup.sectors", "secure.fill.events", "secure.writeback.events",
)
CALL_LAYERS = ("gpu.l2", "secure.value_cache", "mem.metadata_cache",
               "metadata.bmt")
BYTE_COUNTS = tuple(
    f"{engine}.{stream}_bytes"
    for engine in ("pssm", "plutus") for stream in ("counter", "mac", "tree")
)

Metrics = Dict[str, Tuple[float, str]]


class RepetitionFailed(RuntimeError):
    """A repetition process did not run to completion."""


class Repetitions:
    """Starts the repetition processes of one workload and seed."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = {
            key: value for key, value in os.environ.items()
            if key not in SCRUBBED_ENV
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK_DIR / "pycache")

    def run(self, *extra: str) -> dict:
        """Run one repetition to completion and return its result."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RepetitionFailed("no time left for another repetition")
        command = [
            sys.executable, str(HERE / "rep.py"),
            "--workload", self.workload, "--seed", str(self.seed), *extra,
        ]
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise RepetitionFailed(
                f"a repetition was stopped at the {RUN_LIMIT_S:.0f} s limit"
            ) from None
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise RepetitionFailed(
                f"a repetition exited with code {done.returncode}"
            )
        try:
            return json.loads(lines[-1])
        except ValueError:
            raise RepetitionFailed("a repetition printed no result") from None


def measure(reps: Repetitions, seconds: float, traced: bool):
    """Untraced repetitions, and the traced one if asked.

    Untraced repetitions go on while the next one (and the traced one)
    is expected to end within *seconds*; there is always at least one.
    """
    untraced: List[dict] = []
    durations: List[float] = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        untraced.append(reps.run())
        durations.append(time.monotonic() - started)
        ahead = statistics.median(durations) * (
            1 + (TRACED_SLOWDOWN if traced else 0)
        )
        if time.monotonic() - begin + ahead > seconds:
            break
    traced_rep = None
    if traced:
        WORK_DIR.mkdir(exist_ok=True)
        out = WORK_DIR / f"{reps.workload}-seed{reps.seed}.json"
        traced_rep = reps.run("--trace-out", str(out))
    return untraced, traced_rep


def absent_entry_point_reported() -> bool:
    """Is an entry point the program lacks reported as absent, while the
    one it has is still timed and afterwards restored?"""
    probe = types.ModuleType("perfbench_probe")
    original = probe.run_forgery_experiment = (
        lambda: types.SimpleNamespace(trials=3)
    )

    def resolve(name: str):
        if name != "perfbench_probe":
            raise ImportError(name)
        return probe

    recorder = layers.Recorder()
    recorder.install(
        resolve=resolve,
        functions=(
            ("analysis.forgery", "perfbench_probe", "run_forgery_experiment"),
            ("workloads.study", "perfbench_probe", "study_trace_values"),
            ("gpu.replay", "perfbench_gone", "replay_events"),
        ),
        methods=(("metadata.bmt", "perfbench_probe", "BmtTraversal",
                  ("verify_leaf",)),),
        engine_base=("perfbench_probe", "PartitionEngine"),
    )
    probe.run_forgery_experiment()
    recorder.uninstall()
    return (
        recorder.installed == ["perfbench_probe.run_forgery_experiment"]
        and len(recorder.absent) == 3 + len(layers.ENGINE_HOOKS)
        and recorder.counts == {"analysis.forgery.trials": 3}
        and probe.run_forgery_experiment is original
    )


def self_check(workload: spec.Workload, first: dict, traced: Optional[dict],
               expected: Dict[str, str]) -> List[str]:
    """Problems with the benchmark's own checks (empty when sound)."""
    problems = []
    doctored = first.get("doctored")
    if doctored is None or verify.failed_ops(
        [dict(doctored, error=None)], expected
    ) != [doctored["id"]]:
        problems.append("a doctored result was not counted as failed")
    if not absent_entry_point_reported():
        problems.append("a missing entry point was not reported as absent")
    if traced is not None:
        report = traced["trace"]
        avoided = workload.never_calls
        missing = [
            f"{module}.{name}" for layer, module, name in layers.FUNCTIONS
            if layer == avoided and f"{module}.{name}" in report["absent"]
        ]
        calls = report["layers"][avoided]["calls"]
        if missing:
            problems.append(
                f"{avoided} was not watched ({', '.join(missing)} absent), "
                "so the workload contrast went unchecked"
            )
        elif calls:
            problems.append(
                f"{avoided} was called {calls} times on a workload chosen "
                "to avoid it"
            )
    return problems


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def modelled(counts: Dict[str, int]) -> Dict[str, Tuple[int, int]]:
    """Exact (numerator, denominator) pairs of the modelled ratios."""
    def c(key: str) -> int:
        return counts.get(key, 0)

    pairs = {
        # Fills whose value check passed, so no MAC was needed.
        "secure.plutus.value_verified_fill_ratio": (
            c("plutus.value_verified_fills"), c("plutus.fills")),
        # MAC lookups skipped by value verification, over skipped plus
        # fetched from DRAM.
        "secure.plutus.mac_fetch_skip_ratio": (
            c("plutus.mac_fetches_avoided"),
            c("plutus.mac_fetches_avoided") + c("plutus.mac_fetches")),
    }
    for engine in ("pssm", "plutus"):
        # Data events that needed no demand fetch of a counter block.
        events = c(f"{engine}.fills") + c(f"{engine}.writebacks")
        pairs[f"secure.{engine}.counter_onchip_hit_ratio"] = (
            events - c(f"{engine}.counter_fetches"), events)
    return pairs


def end_to_end(untraced: List[dict]) -> Metrics:
    def median(key: str) -> float:
        return statistics.median(r[key] for r in untraced)

    return {
        "norm_cpu_s": (median("cpu_s"), "s"),
        "setup_s": (median("setup_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }


def per_layer(traced: dict, untraced: List[dict]) -> Metrics:
    report = traced["trace"]
    totals, counts = report["layers"], report["counts"]
    metrics: Metrics = {}
    for name in layers.LAYERS:
        metrics[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    for name in CALL_LAYERS:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
    for key in COUNT_KEYS:
        metrics[key] = (counts.get(key, 0), "count")
    hits = counts.get("gpu.l2.sector_hits", 0)
    probed = hits + counts.get("gpu.l2.sector_misses", 0)
    metrics["gpu.l2.sector_hit_rate"] = (_ratio(hits, probed), "ratio")
    metrics["gpu.replay.events_per_s"] = (
        _ratio(counts.get("gpu.replay.events", 0),
               totals["gpu.replay"]["total_s"]), "1/s")
    for key in spec.ENGINE_KEYS:
        metrics[f"gpu.replay.{key.replace(':', '-')}_s"] = (
            report["replay_s"].get(key, 0.0), "s")
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    engine_counts = traced.get("counts", {})
    for name, (num, den) in modelled(engine_counts).items():
        metrics[name] = (_ratio(num, den), "ratio")
    for key in BYTE_COUNTS:
        metrics[f"secure.{key}"] = (engine_counts.get(key, 0), "B")
    figures = traced.get("figures", {})
    metrics["fig18.plutus_speedup_vs_pssm"] = (figures.get("fig18", 0.0),
                                               "ratio")
    metrics["fig19.metadata_reduction_vs_pssm"] = (figures.get("fig19", 0.0),
                                                   "ratio")
    return metrics


def print_summary(args, workload: spec.Workload, verified: bool,
                  untraced: List[dict], traced: Optional[dict]) -> None:
    print(f"workload {args.workload}: {', '.join(sorted(workload.experiments))}"
          f" over {', '.join(workload.roster)}")
    print(f"seed {args.seed}, {spec.TRACE_LENGTH} accesses per benchmark, "
          "disk cache off, serial, closed loop")
    if verified:
        print("results: checked against the digests recorded for this seed")
    else:
        print("results: unverified (no digests recorded for this seed and "
              "length); repetitions checked against the first")
    for i, rep in enumerate(untraced, 1):
        print(f"repetition {i}: wall {rep['wall_s']:.3f} s, cpu "
              f"{rep['raw_cpu_s']:.3f} s, host slowdown "
              f"{rep['slowdown']:.2f}; at reference speed cpu "
              f"{rep['cpu_s']:.3f} s, setup {rep['setup_s']:.3f} s; "
              f"peak RSS {rep['peak_rss_mb']:.1f} MB")
    first = untraced[0]
    figures = first.get("figures")
    if figures:
        print(f"fig18 plutus speedup vs pssm, roster mean {figures['fig18']:.4f}"
              f" (paper, 14 benchmarks: {PAPER_MEANS['fig18']}; "
              "reference only)")
        print(f"fig19 metadata reduction vs pssm, roster mean "
              f"{figures['fig19']:.4f} (paper, 14 benchmarks: "
              f"{PAPER_MEANS['fig19']}; reference only)")
        for name, (num, den) in modelled(first["counts"]).items():
            print(f"{name} = {num}/{den} = {_ratio(num, den):.6f}")
        for key in BYTE_COUNTS:
            print(f"secure.{key} = {first['counts'][key]}")
    if traced is not None:
        report = traced["trace"]
        wall = traced["wall_s"]
        print(f"traced repetition: wall {wall:.3f} s")
        print(f"  {'layer':<21} {'self s':>8} {'share':>7} {'calls':>9}")
        for name in layers.LAYERS:
            t = report["layers"][name]
            print(f"  {name:<21} {t['self_s']:8.3f} "
                  f"{_ratio(t['self_s'], wall):7.1%} {t['calls']:9d}")
        if report["absent"]:
            print("  absent entry points: " + ", ".join(report["absent"]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the paper-experiment run, one workload "
                    "per run.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="how long untraced repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced repetition and report "
                             "per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: the program to measure is missing "
              f"({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    workload = spec.WORKLOADS[args.workload]
    reps = Repetitions(args.workload, args.seed,
                       time.monotonic() + RUN_LIMIT_S)
    try:
        untraced, traced = measure(reps, args.seconds, args.trace == 1)
    except RepetitionFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    reference = verify.reference(args.workload, spec.TRACE_LENGTH, args.seed)
    expected = reference if reference is not None else {
        op["id"]: op["digest"] for op in untraced[0]["ops"] if op["digest"]
    }
    done = untraced + ([traced] if traced is not None else [])
    failures = [
        op_id for rep in done for op_id in verify.failed_ops(rep["ops"],
                                                              expected)
    ]
    problems = self_check(workload, untraced[0], traced, expected)
    print_summary(args, workload, reference is not None, untraced, traced)
    for op_id in failures:
        print(f"failed operation: {op_id}")
    for problem in problems:
        print(f"self-check failed: {problem}")
    metrics = (per_layer(traced, untraced) if traced is not None
               else end_to_end(untraced))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": sum(len(rep["ops"]) for rep in done),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
