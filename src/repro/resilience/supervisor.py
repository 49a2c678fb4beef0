"""The campaign supervisor: retries, journaling, budgets, degradation.

Every multi-unit command (experiments, sweeps, fault and crash
campaigns, fuzzing) runs its units through :meth:`Supervisor.run`,
which executes a :class:`~repro.resilience.units.Campaign` unit by unit
under one retry policy, resource budget, optional chaos monkey, and
optional run journal:

* a unit already marked ``ok`` in the journal is **skipped** and its
  journaled result reused (that is what makes ``--resume`` after
  ``kill -9`` cheap and byte-identical);
* a failing attempt is classified (crash / timeout / deterministic /
  budget) and retried with seeded exponential backoff while the policy
  allows;
* budgets are checked before every unit and between retry attempts;
  exhaustion cancels all remaining units — they are *not* journaled,
  so a later resume still runs them — and the outcome is **partial**;
* every finished unit (ok or failed) is journaled with an fsync before
  the supervisor moves on.

The supervisor holds the journal's location (run dir, run id, resume),
not an open journal: :meth:`Supervisor.run` opens it against the
campaign it runs, so the fingerprint check covers exactly that work.
Without a run id nothing is journaled. Journaled results are reused
only on resume, so the constructor refuses a fresh run whose journal
exists, and a resume with none, before any work starts.

The journal's unit and end records (attempts, failure class, per-unit
telemetry) are the record of *how* a run survived, not just that it
did; ``status`` renders them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.errors import EXIT_OK, EXIT_PARTIAL, JournalError
from repro.resilience.budget import BudgetGuard, ResourceBudget, current_rss_mb
from repro.resilience.chaos import ChaosMonkey
from repro.resilience.journal import RunJournal, journal_path
from repro.resilience.policy import FailureClass, RetryPolicy, classify_failure
from repro.resilience.telemetry import UnitTelemetry, rollup
from repro.resilience.units import Campaign, WorkUnit

#: Unit statuses a :class:`UnitOutcome` can carry.
STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"


@dataclass
class UnitOutcome:
    """What the supervisor concluded about one work unit."""

    unit_id: str
    kind: str
    label: str
    status: str
    attempts: int = 0
    failure_class: Optional[str] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    #: JSON-normalized result payload (``ok``/``skipped`` only).
    result: Optional[object] = None
    #: Resource measurements for the attempt series (journal form);
    #: ``None`` for skipped/cancelled units, which never executed here.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def completed(self) -> bool:
        return self.status in (STATUS_OK, STATUS_SKIPPED)


@dataclass
class CampaignOutcome:
    """One supervised run: per-unit outcomes plus the overall verdict."""

    campaign: str
    fingerprint: str
    run_id: Optional[str] = None
    outcomes: List[UnitOutcome] = field(default_factory=list)
    #: Stable reason degradation was triggered (``None`` = no budget
    #: tripped; units may still have failed).
    degraded: Optional[str] = None
    wall_s: float = 0.0
    #: Roll-up of per-unit resource telemetry (measured units only);
    #: see :func:`repro.resilience.telemetry.rollup`.
    telemetry: Dict[str, object] = field(default_factory=dict)

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def results(self) -> Dict[str, object]:
        """unit_id -> result payload for every completed unit."""
        return {o.unit_id: o.result for o in self.outcomes if o.completed}

    @property
    def partial(self) -> bool:
        return self.degraded is not None or any(
            not o.completed for o in self.outcomes
        )

    @property
    def ok(self) -> bool:
        return not self.partial

    @property
    def exit_code(self) -> int:
        return EXIT_PARTIAL if self.partial else EXIT_OK


class Supervisor:
    """Executes campaigns resiliently; see the module docstring."""

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        budget: Optional[ResourceBudget] = None,
        chaos: Optional[ChaosMonkey] = None,
        run_dir: "str | os.PathLike[str] | None" = None,
        run_id: Optional[str] = None,
        resume: bool = False,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        cpu_clock: Callable[[], float] = time.process_time,
        rss_probe: Callable[[], Optional[float]] = current_rss_mb,
    ) -> None:
        """Raises :class:`~repro.common.errors.JournalError` when the run
        is named (``run_dir`` and ``run_id``) and its journal exists
        without ``resume``, or ``resume`` is set and it does not.
        """
        self.policy = policy if policy is not None else RetryPolicy()
        self.budget = budget if budget is not None else ResourceBudget()
        self.chaos = chaos
        if run_dir and run_id:
            exists = journal_path(run_dir, run_id).exists()
            if exists and not resume:
                raise JournalError(
                    f"run {run_id!r} already has a journal under "
                    f"{run_dir}; pass --resume {run_id} to reuse its "
                    "results, or --run-id with a new id to start afresh"
                )
            if resume and not exists:
                raise JournalError(
                    f"no journal for run {run_id!r} under {run_dir}; "
                    "nothing to resume"
                )
        #: Journal location: ``<run_dir>/<run_id>/``. Both must be set
        #: for the run to journal.
        self.run_dir = run_dir
        self.run_id = run_id
        self.sleep = sleep
        self.clock = clock
        #: Telemetry clocks/probes, injectable for deterministic tests.
        self.cpu_clock = cpu_clock
        self.rss_probe = rss_probe

    def run(self, campaign: Campaign) -> CampaignOutcome:
        """Execute *campaign* to a :class:`CampaignOutcome`.

        Raises :class:`~repro.common.errors.JournalError` before any
        unit runs when the journal was recorded for other work.
        """
        journal = self._open_journal(campaign)
        guard = BudgetGuard(self.budget, clock=self.clock)
        guard.start()
        outcome = CampaignOutcome(
            campaign=campaign.name,
            fingerprint=campaign.fingerprint,
            run_id=journal.run_id if journal else None,
        )
        completed = journal.completed() if journal else {}
        for unit in campaign.units:
            prior = completed.get(unit.unit_id)
            if prior is not None:
                outcome.outcomes.append(
                    UnitOutcome(
                        unit_id=unit.unit_id,
                        kind=unit.kind,
                        label=unit.label,
                        status=STATUS_SKIPPED,
                        attempts=0,
                        result=prior.get("result"),
                    )
                )
                continue
            if outcome.degraded is None:
                outcome.degraded = guard.exceeded()
            if outcome.degraded is not None:
                outcome.outcomes.append(
                    UnitOutcome(
                        unit_id=unit.unit_id,
                        kind=unit.kind,
                        label=unit.label,
                        status=STATUS_CANCELLED,
                        error=outcome.degraded,
                    )
                )
                continue
            unit_outcome = self._run_unit(unit, guard, journal)
            outcome.outcomes.append(unit_outcome)
            if unit_outcome.failure_class == FailureClass.BUDGET.value:
                outcome.degraded = unit_outcome.error or "budget exhausted"
        outcome.wall_s = guard.elapsed()
        outcome.telemetry = rollup(u.telemetry for u in outcome.outcomes)
        if journal is not None:
            journal.record_end(
                "partial" if outcome.partial else "complete",
                reason=outcome.degraded,
                telemetry=outcome.telemetry,
            )
        return outcome

    # -- internals -----------------------------------------------------------

    def _open_journal(self, campaign: Campaign) -> Optional[RunJournal]:
        """The run's journal, or ``None`` when the run is not named."""
        if not (self.run_dir and self.run_id):
            return None
        # Record the budget in the run header so the live `status`
        # monitor can report consumption without access to the args.
        budget = {
            key: value
            for key, value in (
                ("wall_clock_s", self.budget.wall_clock_s),
                ("unit_timeout_s", self.budget.unit_timeout_s),
                ("max_rss_mb", self.budget.max_rss_mb),
            )
            if value is not None
        }
        return RunJournal.open(
            self.run_dir,
            self.run_id,
            campaign,
            meta={"budget": budget} if budget else None,
        )

    def _run_unit(
        self,
        unit: WorkUnit,
        guard: BudgetGuard,
        journal: Optional[RunJournal],
    ) -> UnitOutcome:
        policy = self.policy
        start = self.clock()
        cpu_start = self.cpu_clock()
        failure: Optional[FailureClass] = None
        error: Optional[str] = None
        attempt = 0

        def measure(elapsed: float, attempts: int) -> Dict[str, object]:
            return UnitTelemetry(
                wall_s=elapsed,
                cpu_s=max(0.0, self.cpu_clock() - cpu_start),
                rss_mb=self.rss_probe(),
                retries=max(0, attempts - 1),
            ).as_dict()
        for attempt in range(1, policy.max_attempts + 1):
            try:
                if self.chaos is not None:
                    self.chaos.strike(unit.unit_id, attempt)
                with guard.unit_timeout():
                    payload = unit.execute()
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                failure = classify_failure(exc)
                error = f"{type(exc).__name__}: {exc}"
                if not policy.should_retry(failure, attempt):
                    break
                reason = guard.exceeded()
                if reason is not None:
                    # No budget left for another attempt: surface the
                    # exhaustion, not the transient failure.
                    failure = FailureClass.BUDGET
                    error = reason
                    break
                self.sleep(policy.backoff_delay(unit.unit_id, attempt))
            else:
                elapsed = self.clock() - start
                telemetry = measure(elapsed, attempt)
                if journal is not None:
                    journal.record_unit(
                        unit, STATUS_OK, attempt, elapsed, result=payload,
                        telemetry=telemetry,
                    )
                return UnitOutcome(
                    unit_id=unit.unit_id,
                    kind=unit.kind,
                    label=unit.label,
                    status=STATUS_OK,
                    attempts=attempt,
                    elapsed_s=elapsed,
                    result=payload,
                    telemetry=telemetry,
                )
        elapsed = self.clock() - start
        telemetry = measure(elapsed, attempt)
        failure_value = failure.value if failure is not None else None
        if journal is not None and failure is not FailureClass.BUDGET:
            # Budget failures stay out of the journal: the unit never
            # ran to a verdict, so a resume should retry it.
            journal.record_unit(
                unit,
                STATUS_FAILED,
                attempt,
                elapsed,
                failure_class=failure_value,
                error=error,
                telemetry=telemetry,
            )
        return UnitOutcome(
            unit_id=unit.unit_id,
            kind=unit.kind,
            label=unit.label,
            status=STATUS_FAILED,
            attempts=attempt,
            failure_class=failure_value,
            error=error,
            elapsed_s=elapsed,
            telemetry=telemetry,
        )
