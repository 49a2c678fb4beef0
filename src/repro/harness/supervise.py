"""Shared CLI plumbing for supervised (resilient) runs.

Every multi-unit subcommand (the experiments command, ``sweep``,
``inject`` and ``conform --fuzz``) runs its units under the campaign
supervisor and uses the same flag vocabulary:

* ``--budget`` / ``--unit-timeout`` / ``--max-rss-mb`` — resource
  budgets; exhaustion cancels remaining units and exits with the
  partial code (3);
* ``--run-dir`` / ``--run-id`` / ``--resume`` — the journal: where run
  directories live, which run this is, and whether to continue an
  existing one instead of starting fresh. Only a named run (``--run-id``
  or ``--resume``) journals; journaled results are reused only under
  ``--resume``, and a fresh run whose journal already exists is refused.

:func:`build_supervisor` turns parsed args into a ready
:class:`Supervisor`, which opens the journal against the campaign it
runs and executes the units serially in-process, each once: a unit
that fails is journaled as failed, and only ``--resume`` runs it
again.
"""

from __future__ import annotations

import argparse

from repro.resilience import ResourceBudget, Supervisor

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


def add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Install the shared supervisor flags on *parser*."""
    group = parser.add_argument_group("resilience")
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
             "Unix main thread; advisory elsewhere); a unit that times "
             "out is journaled as failed",
    )
    group.add_argument(
        "--max-rss-mb", type=_positive_float, default=None, metavar="MB",
        help="peak RSS ceiling for the whole process; crossing it "
             "degrades the campaign like an exhausted --budget",
    )
    group.add_argument(
        "--run-dir", default=DEFAULT_RUN_DIR, metavar="PATH",
        help=f"root for run journals (default {DEFAULT_RUN_DIR}; "
             "pass '' to disable journaling and resume)",
    )
    group.add_argument(
        "--run-id", default=None, metavar="ID",
        help="name this run and journal it under --run-dir (without "
             "--run-id or --resume nothing is journaled); an id whose "
             "journal exists is refused unless passed to --resume",
    )
    group.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="continue an existing run: completed units are loaded "
             "from its journal and not re-executed; failed and "
             "cancelled units run again",
    )


def build_supervisor(args: argparse.Namespace) -> Supervisor:
    """Construct the supervisor the parsed *args* describe.

    A named run (``--run-id`` or ``--resume`` with a non-empty
    ``--run-dir``) journals. The :class:`Supervisor` refuses an existing
    journal without ``--resume``, or a ``--resume`` with none, by
    raising :class:`~repro.common.errors.JournalError`; every command
    builds its supervisor before any work, and surfaces that as a usage
    error.
    """
    run_id = args.resume or args.run_id
    return Supervisor(
        budget=ResourceBudget(
            wall_clock_s=args.budget,
            unit_timeout_s=args.unit_timeout,
            max_rss_mb=args.max_rss_mb,
        ),
        run_dir=args.run_dir if run_id else None,
        run_id=run_id,
        resume=args.resume is not None,
    )
