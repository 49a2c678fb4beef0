"""CLI entry: ``python -m repro.harness [experiment ...]``.

Runs the requested experiments (default: all; a repeated name runs
once) and prints their reports when the campaign ends. Useful flags:
``--length`` to control trace size, ``--benchmarks`` to restrict the
roster, and the resilience flags shared with the other campaign
commands (below). Each benchmark's trace is built, and its L2 pass
run, once per process and kept in memory; the run writes no file but a
named run's journal.

``python -m repro.harness profile <benchmark>`` instead runs one fully
instrumented simulation and renders the observability dashboard; see
docs/ARCHITECTURE.md § Observability.

``python -m repro.harness inject <benchmark> --campaign <name>`` mounts
an adversarial fault-injection campaign against the secure-memory model
and prints the detection matrix, exiting 1 if any injected fault is
missed; see docs/ARCHITECTURE.md § Fault model & injection.

``python -m repro.harness conform [--corpus|--fuzz N] [--update]`` runs
the differential conformance subsystem — golden corpus, cross-engine
invariants, seeded trace fuzzer — and exits 1 on any invariant
violation or snapshot drift; see docs/ARCHITECTURE.md § Conformance.

``python -m repro.harness sweep <axis> <benchmark>`` runs one
sensitivity sweep, one work unit per cell. Like every multi-unit
command (the experiments command, ``inject`` and ``conform --fuzz``
too), it runs its units serially in-process under the campaign
supervisor: a named run (``--run-id``) is journaled, so ``--resume
<run-id>`` after a crash or a failed unit re-runs only the unfinished
units, and ``--budget`` degrades gracefully into an explicit partial
report; see docs/ARCHITECTURE.md § Resilient execution.

``python -m repro.harness status <journal>`` monitors a named run from
its journal, read-only and safe against the live campaign;
``--follow`` tails it to completion. See docs/SCHEMAS.md for the
journal record layout it consumes.

``python -m repro.harness list`` enumerates every key the other
subcommands accept (benchmarks, engine design points, experiments,
sweeps, fault campaigns, fuzz patterns, conformance invariants).

All subcommands share the logging flags (``-v``/``-vv``/``-q``; see
repro.harness.logsetup) and log to stderr only.

Exit statuses are uniform across subcommands: 0 success, 1 violation
or regression, 2 usage/runtime error (one-line message, never a
traceback), 3 partial — a supervised campaign degraded or lost units.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    ReproError,
)
from repro.harness.experiments import EXPERIMENTS
from repro.harness.logsetup import add_logging_flags, setup_logging
from repro.harness.report import render_experiment, render_profile
from repro.harness.runner import (
    DEFAULT_TRACE_LENGTH,
    ExperimentContext,
    engine_factories,
)
from repro.harness.supervise import add_resilience_flags, build_supervisor
from repro.obs import ObsConfig
from repro.workloads.benchmarks import benchmark_names


def _check_known(parser: argparse.ArgumentParser, kind: str, key: str,
                 known) -> None:
    """Exit with a one-line parser error if *key* is not a known name."""
    if key not in known:
        parser.error(f"unknown {kind} {key!r}; known: {sorted(known)}")


def profile_main(argv) -> int:
    """Parse and run the ``profile`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness profile",
        description="Run one instrumented simulation and render the "
                    "observability dashboard.",
    )
    parser.add_argument(
        "benchmark",
        help="benchmark trace to profile",
    )
    parser.add_argument(
        "--engine", default="plutus",
        help="engine design point (default: plutus)",
    )
    parser.add_argument(
        "--length", type=int, default=DEFAULT_TRACE_LENGTH,
        help="trace length in coalesced accesses",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="trace generation seed"
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics registry as JSON",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the span ring (spans and events) as JSONL",
    )
    parser.add_argument(
        "--interval", type=int, default=1024, metavar="EVENTS",
        help="DRAM events between traffic snapshots (default 1024)",
    )
    parser.add_argument(
        "--trace-events", action="store_true",
        help="also record every individual fill/writeback as an event "
             "(verbose)",
    )
    parser.add_argument(
        "--span-detail", action="store_true",
        help="profile detail spans too (engine fill/writeback runs, BMT "
             "traversals, crypto primitives); higher overhead",
    )
    parser.add_argument(
        "--chrome-out", default=None, metavar="PATH",
        help="write the span profile as Chrome trace_event JSON "
             "(load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--collapsed-out", default=None, metavar="PATH",
        help="write the span profile as collapsed stacks "
             "(flamegraph.pl / speedscope input)",
    )
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    setup_logging(args)
    _check_known(parser, "benchmark", args.benchmark, benchmark_names())
    _check_known(parser, "engine", args.engine, engine_factories())

    from repro.harness.profile import run_profile

    try:
        profile = run_profile(
            args.benchmark,
            args.engine,
            length=args.length,
            seed=args.seed,
            obs=ObsConfig(
                enabled=True,
                interval_events=args.interval,
                trace_memory_events=args.trace_events,
                span_detail=args.span_detail,
            ),
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
            chrome_out=args.chrome_out,
            collapsed_out=args.collapsed_out,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(render_profile(profile))
    return EXIT_OK


def inject_main(argv) -> int:
    """Parse and run the ``inject`` subcommand."""
    from repro.faults.campaign import CAMPAIGNS
    from repro.faults.crashpoints import CRASH_CAMPAIGNS
    from repro.faults.plan import ENGINE_VARIANTS

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness inject",
        description="Mount an adversarial fault-injection campaign and "
                    "print the detection matrix. Crash campaigns instead "
                    "kill the recoverable engine at every persist "
                    "barrier and print the recovery matrix.",
    )
    parser.add_argument(
        "benchmark",
        help="benchmark trace supplying the victim workload",
    )
    parser.add_argument(
        "--campaign", default="quick",
        help=f"campaign to mount (default: quick; fault campaigns: "
             f"{sorted(CAMPAIGNS)}; crash campaigns: "
             f"{sorted(CRASH_CAMPAIGNS)})",
    )
    parser.add_argument(
        "--engines", nargs="+", default=None, metavar="ENGINE",
        help="restrict the engine roster (default: the campaign's own; "
             f"known: {sorted(ENGINE_VARIANTS)}; not applicable to "
             "crash campaigns)",
    )
    parser.add_argument(
        "--length", type=int, default=DEFAULT_TRACE_LENGTH,
        help="trace length in coalesced accesses",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="trace generation seed"
    )
    add_resilience_flags(parser)
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    setup_logging(args)
    _check_known(parser, "benchmark", args.benchmark, benchmark_names())
    _check_known(
        parser, "campaign", args.campaign,
        set(CAMPAIGNS) | set(CRASH_CAMPAIGNS),
    )
    for engine in args.engines or ():
        _check_known(parser, "engine variant", engine, ENGINE_VARIANTS)

    crash = args.campaign in CRASH_CAMPAIGNS
    if crash and args.engines:
        parser.error(
            "--engines does not apply to crash campaigns: they "
            "always torture the recoverable engine"
        )

    from repro.faults.report import render_campaign, render_crash_report
    from repro.harness.inject import run_inject, run_inject_crash
    from repro.resilience import render_outcome

    try:
        supervisor = build_supervisor(args)
        if crash:
            outcome = run_inject_crash(
                args.benchmark,
                args.campaign,
                length=args.length,
                seed=args.seed,
                supervisor=supervisor,
            )
        else:
            outcome = run_inject(
                args.benchmark,
                args.campaign,
                length=args.length,
                seed=args.seed,
                engines=(
                    list(dict.fromkeys(args.engines)) if args.engines else None
                ),
                supervisor=supervisor,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = outcome.report
    render = render_crash_report if crash else render_campaign
    print(render(report))
    print(render_outcome(report.supervision), file=sys.stderr)
    # A missed fault or a silent corruption fails outright; an
    # incomplete crash sweep under a partial (budget-cancelled) run
    # exits 3 so a resumed run can finish the coverage.
    failed = report.silent_corruptions if crash else not report.ok
    if failed:
        return EXIT_FAILURE
    if report.supervision.partial:
        return EXIT_PARTIAL
    return EXIT_OK if report.ok else EXIT_FAILURE


def conform_main(argv) -> int:
    """Parse and run the ``conform`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness conform",
        description="Differential conformance: replay event logs through "
                    "the full engine matrix and check the declared "
                    "cross-engine invariants.",
    )
    parser.add_argument(
        "--corpus", action="store_true",
        help="verify the committed golden corpus (the default when no "
             "stage is selected)",
    )
    parser.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="additionally run N seeded fuzz iterations against the "
             "universal invariants",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="regenerate the corpus .events/.snap files from their specs "
             "(still runs the invariant oracle)",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="fuzz campaign seed"
    )
    parser.add_argument(
        "--corpus-dir", default=None, metavar="PATH",
        help="corpus location (default: tests/conformance/corpus)",
    )
    parser.add_argument(
        "--functional-events", type=int, default=None, metavar="N",
        help="cap on events the functional-crypto oracle executes per "
             "mode (default 240; longer logs run that prefix)",
    )
    parser.add_argument(
        "--fuzz-chunk", type=int, default=8, metavar="N",
        help="fuzz iterations per supervised work unit (default 8); "
             "chunking never changes results, only journal granularity",
    )
    add_resilience_flags(parser)
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    setup_logging(args)
    if args.fuzz < 0:
        parser.error("--fuzz must be >= 0")
    if args.fuzz_chunk < 1:
        parser.error("--fuzz-chunk must be >= 1")

    from pathlib import Path

    from repro.conformance.matrix import DEFAULT_FUNCTIONAL_EVENTS
    from repro.conformance.report import render_corpus, render_fuzz
    from repro.harness.conform import run_conform
    from repro.resilience import render_outcome

    run_corpus_stage = args.corpus or args.update or args.fuzz == 0
    try:
        outcome = run_conform(
            corpus=run_corpus_stage,
            fuzz_iterations=args.fuzz,
            seed=args.seed,
            update=args.update,
            corpus_dir=Path(args.corpus_dir) if args.corpus_dir else None,
            functional_events=(
                args.functional_events
                if args.functional_events is not None
                else DEFAULT_FUNCTIONAL_EVENTS
            ),
            supervisor=build_supervisor(args),
            fuzz_chunk=args.fuzz_chunk,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if outcome.corpus is not None:
        print(render_corpus(outcome.corpus))
    if outcome.fuzz is not None:
        print(render_fuzz(outcome.fuzz))
        print(render_outcome(outcome.fuzz.supervision), file=sys.stderr)
    if not outcome.ok:
        return EXIT_FAILURE
    if outcome.partial:
        return EXIT_PARTIAL
    return EXIT_OK


def sweep_main(argv) -> int:
    """Parse and run the ``sweep`` subcommand."""
    from repro.harness.sweeps import SWEEP_NAMES

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness sweep",
        description="Run one sensitivity sweep as a supervised, "
                    "journaled campaign: resumable after a crash, "
                    "budget-bounded.",
    )
    parser.add_argument(
        "sweep",
        help=f"sweep axis (known: {list(SWEEP_NAMES)})",
    )
    parser.add_argument(
        "benchmark",
        help="benchmark trace the sweep varies around",
    )
    parser.add_argument(
        "--length", type=int, default=None,
        help="trace length in coalesced accesses (default: the sweep's "
             "own, 8000 for most axes)",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="trace generation seed"
    )
    parser.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="additionally write the report to PATH (crash-atomically)",
    )
    add_resilience_flags(parser)
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    setup_logging(args)
    _check_known(parser, "sweep", args.sweep, set(SWEEP_NAMES))
    _check_known(parser, "benchmark", args.benchmark, benchmark_names())

    from repro.harness.report import render_sweep
    from repro.harness.sweeps import completed_rows, sweep_campaign
    from repro.resilience import render_outcome

    try:
        supervisor = build_supervisor(args)
        campaign = sweep_campaign(
            args.sweep,
            args.benchmark,
            trace_length=args.length,
            seed=args.seed,
        )
        outcome = supervisor.run(campaign)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    from repro.resilience import render_campaign_telemetry

    report = render_sweep(
        args.sweep, args.benchmark, completed_rows(campaign, outcome), outcome
    )
    print(report)
    print(render_outcome(outcome), file=sys.stderr)
    if outcome.telemetry:
        print(render_campaign_telemetry(outcome.telemetry), file=sys.stderr)
    if args.report_out:
        from repro.common.atomicio import atomic_write_text

        atomic_write_text(args.report_out, report + "\n")
    return outcome.exit_code


def list_main(argv) -> int:
    """Parse and run the ``list`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness list",
        description="Enumerate the keys every subcommand accepts.",
    )
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    setup_logging(args)

    from repro.conformance.corpus import CORPUS
    from repro.conformance.fuzzer import PATTERNS
    from repro.conformance.report import render_invariant_table
    from repro.faults.campaign import CAMPAIGNS
    from repro.faults.crashpoints import CRASH_CAMPAIGNS
    from repro.faults.plan import ENGINE_VARIANTS
    from repro.harness.sweeps import SWEEP_NAMES

    def section(title, keys):
        print(f"{title}:")
        for key in keys:
            print(f"  {key}")

    # Every section is sorted (or a deliberately ordered tuple like
    # SWEEP_NAMES) so the listing is byte-stable across runs.
    section("benchmarks", sorted(benchmark_names()))
    section("engines", sorted(engine_factories()))
    section("experiments", sorted(EXPERIMENTS))
    section("sweeps", SWEEP_NAMES)
    section("fault campaigns", sorted(CAMPAIGNS))
    section("crash campaigns", sorted(CRASH_CAMPAIGNS))
    section("fault engine variants", sorted(ENGINE_VARIANTS))
    section("fuzz patterns", sorted(PATTERNS))
    section("corpus entries", sorted(spec.name for spec in CORPUS))
    print(render_invariant_table())
    return EXIT_OK


def main(argv=None) -> int:
    """Parse arguments, run the selected experiments, print reports."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "inject":
        return inject_main(argv[1:])
    if argv and argv[0] == "conform":
        return conform_main(argv[1:])
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "status":
        from repro.harness.status import status_main

        return status_main(argv[1:])
    if argv and argv[0] == "list":
        return list_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the Plutus paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"which experiments to run (default all): {sorted(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--length",
        type=int,
        default=DEFAULT_TRACE_LENGTH,
        help="trace length in coalesced accesses per benchmark",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="trace generation seed"
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        metavar="BENCHMARK",
        help="restrict to a subset of the benchmark roster",
    )
    add_resilience_flags(parser)
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    setup_logging(args)

    selected = list(dict.fromkeys(args.experiments or sorted(EXPERIMENTS)))
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    for benchmark in args.benchmarks or ():
        _check_known(parser, "benchmark", benchmark, benchmark_names())

    from repro.harness.experiments import (
        experiments_campaign,
        result_from_payload,
    )
    from repro.resilience import render_outcome

    ctx = ExperimentContext(
        trace_length=args.length,
        seed=args.seed,
        benchmarks=args.benchmarks or benchmark_names(),
    )
    try:
        supervisor = build_supervisor(args)
        campaign = experiments_campaign(ctx, selected)
        outcome = supervisor.run(campaign)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # An experiment that raised is a MISSING unit (exit 3); the others
    # still print.
    results = outcome.results
    for unit in campaign.units:
        payload = results.get(unit.unit_id)
        if payload is not None:
            print(render_experiment(result_from_payload(payload)))
    print(render_outcome(outcome), file=sys.stderr)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
