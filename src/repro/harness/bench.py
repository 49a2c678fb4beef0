"""The ``bench`` harness subcommand: replay throughput trajectory.

Measures end-to-end replay throughput (DRAM events per second) for a
roster of engine design points and appends the result to a committed
**trajectory** file (``benchmarks/BENCH_0001.json``) — an
append-only series of measurements, each stamped with an environment
fingerprint and an on-machine calibration number so entries from
differently-sized machines stay comparable (divide by calibration, the
same normalization :mod:`benchmarks.check_regression` applies).

Measurements run with observability **disabled** — the numbers answer
"how fast is the simulator", not "how fast is the instrumented
simulator" — and take the best of ``--repeats`` runs to shave scheduler
noise. ``--quick`` (CI) drops to a small trace and a single repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.common.atomicio import atomic_write_text
from repro.common.errors import EXIT_OK, EXIT_USAGE, ReproError

log = logging.getLogger("repro.harness.bench")

#: Version tag of the trajectory file layout.
TRAJECTORY_SCHEMA = "repro.bench-trajectory/1"

#: The committed trajectory the CI bench job compares against.
DEFAULT_TRAJECTORY = Path("benchmarks") / "BENCH_0001.json"

#: Engines in the default measurement roster (baseline, the two prior
#: schemes, and the paper's design).
DEFAULT_ENGINES = ("nosec", "pssm", "common-counters", "plutus")

DEFAULT_BENCH_LENGTH = 8000
QUICK_BENCH_LENGTH = 2000

#: Replay path every entry records. Replay has one (batched columnar)
#: path; entries recorded before the object path was deleted say
#: ``object`` or nothing, and the regression gate only compares like
#: with like.
BENCH_PATH = "columnar"


def calibrate(rounds: int = 3, iterations: int = 20000) -> float:
    """Seconds for a fixed CPU-bound workload on *this* machine.

    A deterministic SHA-256 chain approximates the Python-interpreter
    throughput the simulator depends on (``benchmarks/check_regression``
    imports it too): dividing a throughput by this number yields a
    machine-relative figure comparable across trajectory entries.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        digest = b"\x00" * 32
        for _ in range(iterations):
            digest = hashlib.sha256(digest).digest()
        best = min(best, time.perf_counter() - start)
    return best


def environment_fingerprint() -> Dict[str, object]:
    """Where this measurement ran (for reading the trajectory later)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_bench(
    benchmark: str = "bfs",
    engines: Sequence[str] = DEFAULT_ENGINES,
    *,
    length: int = DEFAULT_BENCH_LENGTH,
    seed: int = 2023,
    repeats: int = 2,
    clock: Callable[[], float] = time.perf_counter,
) -> Dict[str, object]:
    """Measure replay throughput; returns one trajectory entry."""
    from repro.gpu.config import VOLTA
    from repro.gpu.simulator import replay_events, simulate_l2
    from repro.harness.runner import engine_factories
    from repro.workloads.benchmarks import build_trace

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    factories = engine_factories()
    unknown = [key for key in engines if key not in factories]
    if unknown:
        raise KeyError(
            f"unknown engines {unknown}; known: {sorted(factories)}"
        )

    log.info("building %s trace (length=%d seed=%d)", benchmark, length, seed)
    trace = build_trace(benchmark, length=length, seed=seed)
    log_start = clock()
    event_log = simulate_l2(trace, VOLTA)
    log.info(
        "simulate_l2: %d DRAM events in %.2fs",
        len(event_log.events), clock() - log_start,
    )
    events = len(event_log.events)

    def best_of(factory) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = clock()
            replay_events(event_log, factory, VOLTA)
            best = min(best, clock() - start)
        return best

    measured: Dict[str, Dict[str, object]] = {}
    for key in engines:
        serial_s = best_of(factories[key])
        row: Dict[str, object] = {
            "serial_s": round(serial_s, 6),
            "serial_eps": round(events / serial_s, 3) if serial_s else 0.0,
        }
        measured[key] = row
        log.info("%s: %s", key, row)

    return {
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "benchmark": benchmark,
        "length": length,
        "seed": seed,
        "events": events,
        "repeats": repeats,
        "path": BENCH_PATH,
        "calibration_seconds": round(calibrate(), 6),
        "env": environment_fingerprint(),
        "engines": measured,
    }


def load_trajectory(path: Path) -> Dict[str, object]:
    """Read a trajectory file, or an empty one if *path* is absent."""
    if not path.exists():
        return {"schema": TRAJECTORY_SCHEMA, "entries": []}
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != TRAJECTORY_SCHEMA:
        raise ReproError(
            f"{path} has schema {payload.get('schema')!r}; this build "
            f"expects {TRAJECTORY_SCHEMA}"
        )
    if not isinstance(payload.get("entries"), list):
        raise ReproError(f"{path} has no entries list")
    return payload


def append_entry(path: Path, entry: Dict[str, object]) -> int:
    """Append *entry* to the trajectory at *path*; returns its count."""
    payload = load_trajectory(path)
    payload["entries"].append(entry)  # type: ignore[union-attr]
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(str(path), json.dumps(payload, indent=2) + "\n")
    return len(payload["entries"])  # type: ignore[arg-type]


def render_bench(entry: Dict[str, object]) -> str:
    """Human-readable throughput table for one trajectory entry."""
    from repro.harness.report import format_table

    rows = []
    engines: Dict[str, Dict[str, object]] = entry["engines"]  # type: ignore[assignment]
    for key, row in engines.items():
        rows.append({"engine": key, "serial_eps": row.get("serial_eps", 0.0)})
    header = (
        f"== bench: {entry['benchmark']} x {len(engines)} engines  "
        f"({entry['events']:,} events, best of {entry['repeats']}, "
        f"{entry.get('path', 'object')} path) =="
    )
    footer = (
        f"calibration: {float(entry['calibration_seconds']) * 1e3:.1f} ms  "
        f"(events/sec; higher is better)"
    )
    return "\n".join([header, format_table(rows), footer])


def bench_main(argv: List[str]) -> int:
    """Parse and run the ``bench`` subcommand."""
    from repro.harness.logsetup import add_logging_flags, setup_logging

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness bench",
        description="Measure replay throughput across engines and "
                    "append it to the committed benchmark trajectory.",
    )
    parser.add_argument(
        "--benchmark", default="bfs",
        help="benchmark trace to replay (default: bfs)",
    )
    parser.add_argument(
        "--engines", nargs="+", default=list(DEFAULT_ENGINES),
        metavar="ENGINE",
        help=f"engine roster (default: {' '.join(DEFAULT_ENGINES)})",
    )
    parser.add_argument(
        "--length", type=int, default=None,
        help=f"trace length (default {DEFAULT_BENCH_LENGTH}; "
             f"--quick uses {QUICK_BENCH_LENGTH})",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="trace generation seed"
    )
    parser.add_argument(
        "--repeats", type=int, default=2, metavar="N",
        help="measurement repeats per engine; best is kept "
             "(default 2; --quick uses 1)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: small trace, single repeat",
    )
    parser.add_argument(
        "--trajectory", default=str(DEFAULT_TRAJECTORY), metavar="PATH",
        help=f"trajectory file to append to (default {DEFAULT_TRAJECTORY}; "
             "pass '' to measure without recording)",
    )
    parser.add_argument(
        "--entry-out", default=None, metavar="PATH",
        help="additionally write just this run's entry as JSON",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the entry as JSON instead of the table",
    )
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    setup_logging(args)

    from repro.harness.runner import engine_factories
    from repro.workloads.benchmarks import benchmark_names

    if args.benchmark not in benchmark_names():
        parser.error(
            f"unknown benchmark {args.benchmark!r}; "
            f"known: {benchmark_names()}"
        )
    known = engine_factories()
    for key in args.engines:
        if key not in known:
            parser.error(f"unknown engine {key!r}; known: {sorted(known)}")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    length = args.length
    repeats = args.repeats
    if args.quick:
        length = length if args.length is not None else QUICK_BENCH_LENGTH
        repeats = 1
    elif length is None:
        length = DEFAULT_BENCH_LENGTH

    try:
        entry = run_bench(
            args.benchmark,
            args.engines,
            length=length,
            seed=args.seed,
            repeats=repeats,
        )
        if args.trajectory:
            count = append_entry(Path(args.trajectory), entry)
            log.info(
                "trajectory %s now holds %d entries", args.trajectory, count
            )
        if args.entry_out:
            atomic_write_text(
                args.entry_out, json.dumps(entry, indent=2) + "\n"
            )
    except (ReproError, OSError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    if args.as_json:
        print(json.dumps(entry, indent=2, sort_keys=True))
    else:
        print(render_bench(entry))
        if args.trajectory:
            print(f"trajectory: {args.trajectory}")
    return EXIT_OK
