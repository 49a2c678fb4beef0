"""Shared CLI plumbing for supervised (resilient) runs.

Every subcommand that can run under the campaign supervisor uses the
same flag vocabulary:

* ``--retries`` / ``--backoff`` — the per-unit retry policy;
* ``--budget`` / ``--unit-timeout`` / ``--max-rss-mb`` — resource
  budgets; exhaustion cancels remaining units and exits with the
  partial code (3);
* ``--chaos`` / ``--chaos-seed`` — the seeded chaos monkey;
* ``--run-dir`` / ``--run-id`` / ``--resume`` — the journal: where run
  directories live, which run this is, and whether to continue an
  existing one instead of starting fresh (journaled results are reused
  only under ``--resume``; a fresh run whose journal already exists is
  refused);
* ``--workers N`` — the executor: the default, 1, runs units serially
  in-process; ``N >= 2`` runs N journaled worker subprocesses that pull
  units from a shared lease-based work queue, with ``--lease-ttl``
  bounding dead-worker detection, ``--speculate`` duplicating
  stragglers, and ``--chaos-workers`` sabotaging the worker
  *processes* themselves (kill -9, freezes) rather than unit attempts.

:func:`build_supervisor` turns parsed args (plus the concrete campaign,
when journaling applies) into a ready :class:`Supervisor` — or a
:class:`~repro.resilience.DistributedSupervisor` when the subcommand
supplied a campaign factory spec and the flags ask for one.
"""

from __future__ import annotations

import argparse
from typing import Dict, Optional

from repro.common.errors import JournalError, ResilienceError

from repro.resilience import (
    Campaign,
    ChaosConfig,
    ChaosMonkey,
    DistributedConfig,
    DistributedSupervisor,
    ResourceBudget,
    RetryPolicy,
    RunJournal,
    Supervisor,
    WorkerChaosConfig,
    journal_path,
)

#: Default root for run journals (mirrors the ``.cache`` convention).
DEFAULT_RUN_DIR = ".runs"


def _positive_float(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value!r}"
        ) from None
    if parsed <= 0:
        raise argparse.ArgumentTypeError("expected a positive number")
    return parsed


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        ) from None
    if parsed < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return parsed


def add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Install the shared supervisor flags on *parser*."""
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="attempts per work unit before it counts as failed "
             "(default 3; transient crashes and timeouts are retried, "
             "deterministic errors never are)",
    )
    group.add_argument(
        "--backoff", type=_positive_float, default=0.05, metavar="SECONDS",
        help="base delay of the exponential retry backoff (default 0.05; "
             "jitter is seeded, so schedules reproduce)",
    )
    group.add_argument(
        "--budget", type=_positive_float, default=None, metavar="SECONDS",
        help="campaign wall-clock budget; on exhaustion remaining units "
             "are cancelled, missing cells are marked, and the exit "
             "status is 3 (partial)",
    )
    group.add_argument(
        "--unit-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="wall-clock bound per work unit (SIGALRM preemption on the "
             "Unix main thread; advisory elsewhere); timeouts are "
             "retried like crashes",
    )
    group.add_argument(
        "--max-rss-mb", type=_positive_float, default=None, metavar="MB",
        help="peak RSS ceiling for the whole process; crossing it "
             "degrades the campaign like an exhausted --budget",
    )
    group.add_argument(
        "--chaos", action="store_true",
        help="sabotage the campaign runtime itself: seeded random kills, "
             "delays, and simulated OOMs around unit attempts",
    )
    group.add_argument(
        "--chaos-seed", type=int, default=7, metavar="N",
        help="chaos strike seed (default 7); strikes are a pure function "
             "of (seed, unit, attempt)",
    )
    group.add_argument(
        "--chaos-workers", action="store_true",
        help="distributed runs only: sabotage the worker processes "
             "themselves — seeded kill -9s (exercising lease stealing "
             "and respawn) and heartbeat-alive freezes (exercising "
             "straggler speculation)",
    )
    group.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="worker processes for the campaign (default 1: units run "
             "serially in-process); N >= 2 runs N journaled worker "
             "subprocesses pulling from a shared lease-based work queue",
    )
    group.add_argument(
        "--lease-ttl", type=_positive_float, default=5.0,
        metavar="SECONDS",
        help="distributed runs: heartbeat TTL of a unit lease "
             "(default 5); a lease untouched for this long is "
             "presumed dead and any peer may steal the unit",
    )
    group.add_argument(
        "--speculate", action="store_true",
        help="distributed runs: speculatively duplicate straggler "
             "units (in flight longer than 3x the running median); "
             "first completion wins, the loser is recorded",
    )
    group.add_argument(
        "--run-dir", default=DEFAULT_RUN_DIR, metavar="PATH",
        help=f"root for run journals (default {DEFAULT_RUN_DIR}; "
             "pass '' to disable journaling and resume)",
    )
    group.add_argument(
        "--run-id", default=None, metavar="ID",
        help="name this run's journal directory (default: the "
             "campaign fingerprint prefix); an id whose journal exists "
             "is refused unless passed to --resume",
    )
    group.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="continue an existing run: completed units are loaded "
             "from its journal and not re-executed",
    )


def supervision_requested(args: argparse.Namespace) -> bool:
    """Whether any flag asked for the supervised execution path."""
    return bool(
        getattr(args, "supervise", False)
        or args.resume
        or args.run_id
        or distributed_requested(args)
        or args.chaos
        or args.chaos_workers
        or args.budget is not None
        or args.unit_timeout is not None
        or args.max_rss_mb is not None
    )


def distributed_requested(args: argparse.Namespace) -> bool:
    """Whether the flags ask for the multi-process executor (N >= 2).

    The lease queue and per-worker journals live in the run directory,
    so :func:`build_supervisor` refuses the request when journaling is
    disabled (``--run-dir ''``) instead of silently running serially.
    """
    return args.workers >= 2


def build_supervisor(
    args: argparse.Namespace,
    campaign: Optional[Campaign] = None,
    factory_spec: Optional[Dict[str, object]] = None,
) -> Supervisor:
    """Construct the supervisor the parsed *args* describe.

    With a *campaign* (and journaling flags present and enabled), the
    run journal is opened against it — creating a fresh journal, or
    validating and continuing an existing one under ``--resume``.
    Journaled results are reused only under ``--resume``: a run without
    it whose journal already exists is refused before the journal is
    opened or repaired, since the run id (by default the campaign
    fingerprint) does not cover the code that produced the results.
    Raises :class:`~repro.common.errors.JournalError` for that and for
    resume mismatches, which callers surface as a usage error.

    With *factory_spec* (a JSON-able ``{"factory": "module:function",
    "kwargs": ...}`` reference that rebuilds *campaign* in another
    process) and distributed flags, the result is a
    :class:`~repro.resilience.DistributedSupervisor` instead.
    """
    policy = RetryPolicy(
        max_attempts=max(1, args.retries), base_delay_s=args.backoff
    )
    budget = ResourceBudget(
        wall_clock_s=args.budget,
        unit_timeout_s=args.unit_timeout,
        max_rss_mb=args.max_rss_mb,
    )
    chaos = (
        ChaosMonkey(ChaosConfig(seed=args.chaos_seed)) if args.chaos else None
    )
    journal = None
    if campaign is not None and args.run_dir:
        resume = args.resume
        run_id = resume or args.run_id or campaign.default_run_id
        if resume is None and journal_path(args.run_dir, run_id).exists():
            raise JournalError(
                f"run {run_id!r} already has a journal under "
                f"{args.run_dir}; pass --resume {run_id} to reuse its "
                "results, or --run-id with a new id to start afresh"
            )
        # Record the budget in the run header so the live `status`
        # monitor can report consumption without access to the args.
        budget_meta = {
            key: value
            for key, value in (
                ("wall_clock_s", budget.wall_clock_s),
                ("unit_timeout_s", budget.unit_timeout_s),
                ("max_rss_mb", budget.max_rss_mb),
            )
            if value is not None
        }
        journal = RunJournal.open(
            args.run_dir,
            run_id,
            campaign,
            require_existing=resume is not None,
            meta={"budget": budget_meta} if budget_meta else None,
        )
    if factory_spec is not None and distributed_requested(args):
        if journal is None:
            raise ResilienceError(
                "--workers needs a run journal; do not combine it "
                "with --run-dir ''"
            )
        worker_chaos = (
            WorkerChaosConfig(seed=args.chaos_seed)
            if args.chaos_workers
            else None
        )
        config = DistributedConfig(
            workers=args.workers,
            lease_ttl_s=args.lease_ttl,
            speculate=args.speculate,
            chaos_seed=args.chaos_seed if args.chaos else None,
            worker_chaos=worker_chaos,
        )
        return DistributedSupervisor(
            config,
            factory_spec,
            journal,
            policy=policy,
            budget=budget,
            cache_dir=getattr(args, "cache_dir", None),
        )
    return Supervisor(
        policy=policy, budget=budget, chaos=chaos, journal=journal
    )
