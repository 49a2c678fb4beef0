"""One repetition of a benchmark workload, in a fresh process.

Started by run.py. Builds an uncached experiment context over the
workload's roster, calls the workload's experiments in the order the
harness CLI uses, and prints one JSON object as its last line:

* ``setup_s``: CPU seconds from process start to a constructed context,
  i.e. interpreter, ``import repro`` and the engine registry, at the
  reference host speed (see ``HostSpeed``);
* ``cpu_s``: CPU seconds from the first experiment call to the last
  result, of this process and of the child processes it reaped, at the
  reference host speed;
* ``raw_cpu_s`` and ``wall_s``: the same interval in CPU seconds as
  measured and in wall-clock seconds, sampling excluded;
* ``slowdown``: the median reference-loop time over ``REFERENCE_S``;
* ``peak_rss_mb``: this process's peak resident set;
* ``ops``: per experiment call, its result digest or its error;
* ``doctored``: the digest of one result with a number moved, which the
  driver must count as a failed operation;
* ``counts`` and ``figures``: exact pssm/plutus engine counts and the
  Fig. 18/19 means, on workloads that run those figures;
* ``trace``: the per-layer report of a traced repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import signal
import statistics
import time
import traceback
from dataclasses import asdict
from typing import List, Optional, Tuple

import spec
import verify

#: ``EngineStats`` fields and ``TrafficReport`` byte totals read per engine.
STAT_FIELDS = ("fills", "writebacks", "counter_fetches", "mac_fetches",
               "mac_fetches_avoided", "value_verified_fills")
TRAFFIC_FIELDS = ("counter_bytes", "mac_bytes", "tree_bytes")

#: Iterations of the reference loop, and the CPU seconds it takes on an
#: undisturbed core of the 2-CPU Xeon host (2.0 GHz) the benchmark was
#: tuned on: the speed every CPU time is scaled to.
REFERENCE_ITERATIONS = 2000
REFERENCE_S = 0.0004
#: CPU seconds of the repetition between two runs of the reference loop.
SAMPLE_INTERVAL_S = 0.02


def modelled_counts(ctx, roster) -> dict:
    """pssm and plutus counts summed over the roster.

    ``ctx.run`` returns the results fig18 and fig19 memoized, so nothing
    is replayed again.
    """
    counts: dict = {}
    for engine in ("pssm", "plutus"):
        for bench in roster:
            result = ctx.run(bench, engine)
            for name in STAT_FIELDS:
                key = f"{engine}.{name}"
                counts[key] = counts.get(key, 0) + getattr(
                    result.engine_stats, name)
            for name in TRAFFIC_FIELDS:
                key = f"{engine}.{name}"
                counts[key] = counts.get(key, 0) + getattr(
                    result.traffic, name)
    return counts


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic and small-dict stores."""
    x = 1
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 255] = i
    return x


class HostSpeed:
    """How fast the host runs fixed work, sampled through a repetition.

    Other tenants of a shared host slow whatever runs on a core, by up
    to 70%, in phases from a fraction of a second to minutes.
    CPU time does not exclude that, so it spreads across runs far more
    than the program's own work does. Every ``SAMPLE_INTERVAL_S`` of
    CPU time a SIGPROF timer runs the reference loop on the main
    thread, timed on the thread's CPU clock (the process clock reads
    coarsely while the timer is armed). Each stretch of the program
    between two samples is scaled by ``REFERENCE_S`` over their mean,
    which turns CPU seconds into seconds at the reference speed. The
    reference loop is interpreter work, as most of the program is.
    """

    def __init__(self) -> None:
        #: ``(main-thread CPU seconds when a sample began, its seconds)``
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        begin = time.thread_time()
        reference_loop()
        self.samples.append((begin, time.thread_time() - begin))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def sampling_s(self, begin: float, end: float) -> float:
        """Seconds spent sampling that began in [begin, end)."""
        return sum(took for at, took in self.samples if begin <= at < end)

    def slowdown(self) -> float:
        return statistics.median(t for _, t in self.samples) / REFERENCE_S

    def scaled(self, begin: float, end: float) -> float:
        """Main-thread CPU seconds in [begin, end], sampling excluded,
        at the reference speed."""
        stretches = []
        done, before = 0.0, self.samples[0][1]
        for at, took in self.samples:
            stretches.append((done, at, (before + took) / 2))
            done, before = at + took, took
        stretches.append((done, math.inf, before))
        return sum(
            (min(hi, end) - max(lo, begin)) * REFERENCE_S / took
            for lo, hi, took in stretches if min(hi, end) > max(lo, begin)
        )


def other_cpu_seconds() -> float:
    """CPU seconds of this process's other threads and reaped children.

    Counting the children keeps work moved into a process pool from
    reading as a saving.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() - time.thread_time()
            + children.ru_utime + children.ru_stime)


def _untraced(name: str, **attrs):
    return contextlib.nullcontext()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="One repetition of a benchmark workload (run.py starts it).")
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out",
                        help="trace the repetition; write its spans here")
    args = parser.parse_args(argv)
    workload = spec.WORKLOADS[args.workload]

    speed = HostSpeed()
    speed.start()
    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.runner import ExperimentContext

    ctx = ExperimentContext(trace_length=spec.TRACE_LENGTH, seed=args.seed,
                            benchmarks=list(workload.roster), cache_dir="")
    setup_end = time.thread_time()

    recorder = None
    span = _untraced
    if args.trace_out:
        # The traced repetition is timed by its spans, which sampling
        # would disturb; only its set-up is sampled.
        speed.stop()
        import layers

        recorder = layers.Recorder()
        recorder.engine_keys = {id(f): key for key, f in ctx.factories.items()}
        recorder.install()
        span = recorder.span

    results = {}
    ops = []
    start = time.perf_counter()
    cpu_start = time.thread_time()
    other_start = other_cpu_seconds()
    with span("run", workload=args.workload):
        # Sorted keys are the CLI's order, so cross-figure memoization
        # matches a full run: fig07 reuses fig06's replays, fig19 fig18's.
        for key in sorted(workload.experiments):
            error = None
            try:
                with span("experiment", id=key):
                    results[key] = EXPERIMENTS[key](ctx)
            except Exception as exc:  # a failed operation; the run goes on
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            ops.append({"id": key, "error": error, "digest": None})
    cpu_end = time.thread_time()
    other_s = other_cpu_seconds() - other_start
    wall_s = time.perf_counter() - start
    speed.stop()
    if recorder is not None:
        recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    sampling_s = speed.sampling_s(cpu_start, cpu_end)
    slowdown = speed.slowdown()
    payloads = {}
    for op in ops:
        if op["error"] is None:
            try:
                payloads[op["id"]] = asdict(results[op["id"]])
                op["digest"] = verify.digest(payloads[op["id"]])
            except (TypeError, ValueError) as exc:
                op["error"] = f"result is not digestible: {exc}"
    out = {
        "setup_s": speed.scaled(0.0, setup_end),
        "cpu_s": speed.scaled(cpu_start, cpu_end) + other_s / slowdown,
        "raw_cpu_s": cpu_end - cpu_start - sampling_s + other_s,
        "wall_s": wall_s - sampling_s,
        "slowdown": slowdown,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
    }
    if payloads:
        first = next(iter(payloads))
        out["doctored"] = {
            "id": first,
            "digest": verify.digest(verify.doctor(payloads[first])),
        }
    if "fig18" in payloads and "fig19" in payloads:
        out["figures"] = {
            "fig18": payloads["fig18"]["summary"]["mean"],
            "fig19": payloads["fig19"]["summary"]["mean"],
        }
        out["counts"] = modelled_counts(ctx, workload.roster)
    if recorder is not None:
        out["trace"] = recorder.report()
        meta = {"workload": args.workload, "seed": args.seed,
                "length": spec.TRACE_LENGTH, "wall_s": wall_s}
        recorder.write(args.trace_out, meta, out["trace"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
