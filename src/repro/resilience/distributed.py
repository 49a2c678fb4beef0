"""The distributed campaign coordinator: workers, stealing, speculation.

:class:`DistributedSupervisor` is a drop-in for the serial
:class:`~repro.resilience.supervisor.Supervisor` — same ``run(campaign)
-> CampaignOutcome`` contract, same journal, same exit semantics — that
executes the campaign's units on N worker *subprocesses* pulling from a
shared on-disk :class:`~repro.resilience.queue.WorkQueue`:

* **campaign factory spec** — worker processes cannot unpickle runner
  closures, so the coordinator writes ``campaign.json`` naming an
  importable factory (``"module:function"``) plus JSON kwargs; every
  worker rebuilds the campaign and refuses a fingerprint mismatch.
  Unit ids are content-addressed, so a faithful rebuild makes results
  from any process interchangeable;
* **dead-worker detection** — lease heartbeats go stale (peers steal
  the unit) and the coordinator polls its children, feeding deaths
  into the existing failure taxonomy (a dead worker is a ``crash``, a
  stolen stale lease a presumed ``timeout``) and respawning bounded
  replacements with a bumped chaos incarnation;
* **straggler speculation** — once enough units finished to establish
  a running median wall-time, an in-flight unit older than ``k x``
  that median gets a speculation request; one peer duplicates it and
  the first done marker wins, the loser records a ``spec-loss``;
* **deterministic journal merge** — per-worker journals are merged
  into the campaign journal in campaign unit order, deduplicated by
  unit id (done-marker winner first, then smallest worker id), so the
  merged journal — and therefore the report and any later
  ``--resume``, at *any* worker count — is byte-identical to what the
  serial supervisor would have produced.

The merge runs again at the *start* of a run, so a coordinator killed
after its workers completed units but before it merged them recovers
every journaled result on ``--resume`` without re-executing anything.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.atomicio import atomic_write_text
from repro.common.errors import ResilienceError
from repro.resilience.budget import BudgetGuard, ResourceBudget
from repro.resilience.chaos import WorkerChaosConfig
from repro.resilience.journal import RunJournal
from repro.resilience.policy import RetryPolicy
from repro.resilience.queue import WorkQueue
from repro.resilience.supervisor import (
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    CampaignOutcome,
    UnitOutcome,
)
from repro.resilience.telemetry import rollup
from repro.resilience.units import Campaign, WorkUnit
from repro.resilience.worker import CAMPAIGN_SPEC_NAME, WORKERS_DIR

#: Stable degradation reason when every worker died with work pending.
REASON_WORKERS_EXHAUSTED = "worker pool exhausted"


# -- campaign factory specs ---------------------------------------------------


def factory_spec(
    factory: str, kwargs: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """A JSON-able campaign factory reference for ``campaign.json``."""
    if ":" not in factory:
        raise ResilienceError(
            f"campaign factory must be 'module:function', got {factory!r}"
        )
    return {"factory": factory, "kwargs": dict(kwargs or {})}


def build_campaign(spec: Dict[str, object]) -> Campaign:
    """Import and invoke a factory spec; validate the fingerprint.

    The fingerprint check is what guards distributed execution against
    a non-reproducible factory: if the rebuild differs from what the
    coordinator journaled, executing it would journal results under
    the wrong identities.
    """
    factory = spec.get("factory")
    if not isinstance(factory, str) or ":" not in factory:
        raise ResilienceError(f"malformed campaign spec: {spec!r}")
    module_name, _, func_name = factory.partition(":")
    try:
        module = importlib.import_module(module_name)
        func = getattr(module, func_name)
    except (ImportError, AttributeError) as exc:
        raise ResilienceError(
            f"cannot resolve campaign factory {factory!r}: {exc}"
        ) from None
    kwargs = spec.get("kwargs")
    campaign = func(**kwargs) if isinstance(kwargs, dict) else func()
    if not isinstance(campaign, Campaign):
        raise ResilienceError(
            f"campaign factory {factory!r} returned "
            f"{type(campaign).__name__}, not a Campaign"
        )
    expected = spec.get("fingerprint")
    if expected is not None and campaign.fingerprint != expected:
        raise ResilienceError(
            f"campaign factory {factory!r} rebuilt fingerprint "
            f"{campaign.fingerprint!r}, expected {expected!r} — the "
            "factory is not reproducible across processes"
        )
    return campaign


def write_campaign_spec(
    run_dir: Path, spec: Dict[str, object], campaign: Campaign
) -> None:
    """Publish the factory spec workers rebuild the campaign from."""
    payload = dict(spec)
    payload["fingerprint"] = campaign.fingerprint
    payload["name"] = campaign.name
    atomic_write_text(
        run_dir / CAMPAIGN_SPEC_NAME,
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


def demo_campaign(
    values: Sequence[int],
    sleep_map: Optional[Dict[str, float]] = None,
    fail_values: Optional[Sequence[int]] = None,
) -> Campaign:
    """A tiny arithmetic campaign for self-tests and docs examples.

    Deterministic and dependency-free: each unit squares one value,
    optionally sleeping first (``sleep_map`` keys are stringified
    values — JSON object keys are strings) or failing deterministically
    (``fail_values``). This is the reference workload for exercising
    the lease/steal/speculation machinery without simulator cost.
    """
    sleeps = sleep_map or {}
    failures = set(fail_values or ())

    def runner_for(value: int):
        def run() -> Dict[str, object]:
            delay = sleeps.get(str(value))
            if delay:
                time.sleep(float(delay))
            if value in failures:
                raise ResilienceError(f"demo unit {value} always fails")
            return {"value": value, "square": value * value}

        return run

    units = [
        WorkUnit(
            kind="demo",
            params={"value": value},
            runner=runner_for(value),
            label=f"demo[{value}]",
        )
        for value in values
    ]
    return Campaign(name="demo", units=units)


# -- deterministic journal merge ----------------------------------------------


def merge_records(
    campaign: Campaign,
    worker_records: Dict[str, List[Dict[str, object]]],
    winners: Optional[Dict[str, str]] = None,
) -> List[Dict[str, object]]:
    """Pick one unit record per completed unit, in campaign unit order.

    Deterministic in the *set* of records, not their arrival order:
    per (unit, worker) an ``ok`` record is sticky; per unit, ``ok``
    records beat ``failed`` ones; ties break to the done-marker winner
    (*winners*, unit id -> worker) and then to the smallest worker id.
    Duplicates from stealing or speculation carry identical payloads
    (runners are deterministic), so any choice yields the same report —
    the tie-break only pins the merged journal's provenance fields.
    """
    per_unit: Dict[str, Dict[str, Dict[str, object]]] = {}
    for worker in sorted(worker_records):
        for record in worker_records[worker]:
            if record.get("type") != "unit":
                continue
            unit_id = record.get("unit_id")
            if not isinstance(unit_id, str):
                continue
            slot = per_unit.setdefault(unit_id, {})
            prior = slot.get(worker)
            if (
                prior is not None
                and prior.get("status") == "ok"
                and record.get("status") != "ok"
            ):
                continue  # ok is sticky within one worker's journal
            slot[worker] = record
    chosen: List[Dict[str, object]] = []
    for unit in campaign.units:
        slot = per_unit.get(unit.unit_id)
        if not slot:
            continue
        oks = {
            worker: record
            for worker, record in slot.items()
            if record.get("status") == "ok"
        }
        pool = oks or slot
        winner = (winners or {}).get(unit.unit_id)
        record = pool[winner] if winner in pool else pool[min(pool)]
        chosen.append(record)
    return chosen


def read_worker_journals(
    run_dir: Path, fingerprint: Optional[str] = None
) -> Dict[str, List[Dict[str, object]]]:
    """All per-worker journal records under ``<run_dir>/workers/``.

    Journals whose run header names a different campaign fingerprint
    are skipped (a reused run directory must not leak foreign results).
    Torn tails are tolerated per journal, exactly like resume.
    """
    out: Dict[str, List[Dict[str, object]]] = {}
    workers_dir = run_dir / WORKERS_DIR
    if not workers_dir.is_dir():
        return out
    for journal_file in sorted(workers_dir.glob("*/journal.jsonl")):
        worker_id = journal_file.parent.name
        records = RunJournal(journal_file, worker_id).records()
        if fingerprint is not None:
            header = records[0] if records else {}
            if header.get("fingerprint") != fingerprint:
                continue
        out[worker_id] = records
    return out


# -- the coordinator ----------------------------------------------------------


@dataclass(frozen=True)
class DistributedConfig:
    """Knobs of one distributed run; validated on construction."""

    workers: int = 2
    lease_ttl_s: float = 5.0
    #: Lease heartbeat interval; default ``lease_ttl_s / 3``.
    heartbeat_s: Optional[float] = None
    speculate: bool = False
    #: An in-flight unit older than ``factor x`` the running median
    #: completed wall-time gets a speculative duplicate.
    speculate_factor: float = 3.0
    #: Completed units required before the median is trusted.
    speculate_min_done: int = 3
    #: Coordinator monitor-loop poll interval.
    poll_s: float = 0.05
    #: Worker idle poll when nothing is claimable.
    worker_poll_s: float = 0.1
    #: Total respawn budget across all workers; default ``workers * 3``.
    max_respawns: Optional[int] = None
    #: Grace period for workers to drain and exit before SIGKILL.
    shutdown_grace_s: float = 20.0
    #: Unit-attempt chaos inside workers (seed; None = off).
    chaos_seed: Optional[int] = None
    #: Worker-process chaos (kill -9 / freeze); None = off.
    worker_chaos: Optional[WorkerChaosConfig] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ResilienceError("workers must be >= 1")
        if self.lease_ttl_s <= 0:
            raise ResilienceError("lease_ttl_s must be positive")
        if self.speculate_factor <= 1.0:
            raise ResilienceError("speculate_factor must be > 1")

    @property
    def effective_heartbeat_s(self) -> float:
        if self.heartbeat_s is not None:
            return self.heartbeat_s
        return max(0.05, self.lease_ttl_s / 3.0)

    @property
    def respawn_budget(self) -> int:
        if self.max_respawns is not None:
            return self.max_respawns
        return self.workers * 3


@dataclass
class _WorkerProc:
    worker_id: str
    index: int
    incarnation: int
    proc: "subprocess.Popen[bytes]"


class DistributedSupervisor:
    """Runs campaigns on a fleet of worker subprocesses; see module doc."""

    def __init__(
        self,
        config: DistributedConfig,
        spec: Dict[str, object],
        journal: RunJournal,
        policy: Optional[RetryPolicy] = None,
        budget: Optional[ResourceBudget] = None,
        cache_dir: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if journal is None:
            raise ResilienceError(
                "distributed execution requires a run journal "
                "(--run-dir must not be empty)"
            )
        self.config = config
        self.spec = spec
        self.journal = journal
        self.policy = policy if policy is not None else RetryPolicy()
        self.budget = budget if budget is not None else ResourceBudget()
        self.cache_dir = cache_dir
        self.clock = clock
        self.sleep = sleep
        #: Fleet accounting for telemetry and status.
        self.spawned = 0
        self.deaths = 0
        self.respawns = 0
        self.steals = 0
        self.speculations = 0

    # -- public contract -----------------------------------------------------

    def run(self, campaign: Campaign) -> CampaignOutcome:
        run_dir = self.journal.path.parent
        guard = BudgetGuard(self.budget, clock=self.clock)
        guard.start()
        outcome = CampaignOutcome(
            campaign=campaign.name,
            fingerprint=campaign.fingerprint,
            run_id=self.journal.run_id,
        )
        # Recover results a killed coordinator never merged: the merge
        # is idempotent, so running it before reading the skip set
        # makes --resume reuse every journaled unit, not just the ones
        # the previous coordinator got around to merging.
        self._merge(campaign, run_dir)
        completed = self.journal.completed()
        pending = [
            unit.unit_id
            for unit in campaign.units
            if unit.unit_id not in completed
        ]
        try:
            if pending:
                queue = WorkQueue(
                    run_dir / "queue", default_ttl_s=self.config.lease_ttl_s
                )
                labels = {
                    unit.unit_id: unit.label for unit in campaign.units
                }
                queue.populate(pending, labels=labels)
                write_campaign_spec(run_dir, self.spec, campaign)
                self._run_fleet(queue, pending, guard, outcome, run_dir)
                self._merge(campaign, run_dir)
        finally:
            guard.stop()
        self._finalize(campaign, completed, outcome, guard)
        self._clear_pins()
        return outcome

    def _clear_pins(self) -> None:
        """Drop this run's in-flight artifact pins now that it ended.

        Workers pin as ``run-<run_id>-<worker>``; once the campaign is
        journaled those artifacts no longer need shielding from
        ``cache gc``. Best-effort: a coordinator killed before this
        leaves pins behind, and the next completed run of the same id
        clears them.
        """
        from repro.harness.diskcache import DiskCache

        cache = DiskCache.from_spec(self.cache_dir)
        if cache is not None:
            cache.clear_pins(f"run-{self.journal.run_id}-")

    # -- fleet lifecycle -----------------------------------------------------

    def _spawn(
        self, run_dir: Path, worker_id: str, index: int, incarnation: int
    ) -> _WorkerProc:
        cfg = self.config
        cmd = [
            sys.executable, "-m", "repro.resilience.worker",
            "--run", str(run_dir),
            "--worker-id", worker_id,
            "--worker-index", str(index),
            "--incarnation", str(incarnation),
            "--lease-ttl", str(cfg.lease_ttl_s),
            "--heartbeat", str(cfg.effective_heartbeat_s),
            "--poll", str(cfg.worker_poll_s),
            "--retries", str(self.policy.max_attempts),
            "--backoff", str(self.policy.base_delay_s),
        ]
        if self.budget.unit_timeout_s is not None:
            cmd += ["--unit-timeout", str(self.budget.unit_timeout_s)]
        if cfg.chaos_seed is not None:
            cmd += ["--chaos", "--chaos-seed", str(cfg.chaos_seed)]
        if cfg.worker_chaos is not None:
            chaos = cfg.worker_chaos
            cmd += [
                "--chaos-workers",
                "--chaos-seed", str(chaos.seed),
                "--worker-kill-prob", str(chaos.kill_prob),
                "--worker-freeze-prob", str(chaos.freeze_prob),
                "--worker-freeze-s", str(chaos.freeze_s),
            ]
        if self.cache_dir is not None:
            cmd += ["--cache-dir", self.cache_dir]
        workers_dir = run_dir / WORKERS_DIR
        workers_dir.mkdir(parents=True, exist_ok=True)
        env = os.environ.copy()
        package_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        if not existing:
            env["PYTHONPATH"] = package_root
        elif package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = package_root + os.pathsep + existing
        log_path = workers_dir / f"{worker_id}.log"
        with log_path.open("ab") as log:
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=log, env=env
            )
        self.spawned += 1
        return _WorkerProc(
            worker_id=worker_id,
            index=index,
            incarnation=incarnation,
            proc=proc,
        )

    def _run_fleet(
        self,
        queue: WorkQueue,
        pending: Sequence[str],
        guard: BudgetGuard,
        outcome: CampaignOutcome,
        run_dir: Path,
    ) -> None:
        cfg = self.config
        fleet: Dict[str, _WorkerProc] = {}
        for index in range(cfg.workers):
            worker_id = f"w{index}"
            fleet[worker_id] = self._spawn(run_dir, worker_id, index, 0)
        respawns_left = cfg.respawn_budget
        speculated: set = set()
        try:
            while True:
                if queue.all_done(pending):
                    break
                reason = guard.exceeded()
                if reason is not None:
                    self._degrade(outcome, reason)
                    break
                for worker_id, entry in list(fleet.items()):
                    code = entry.proc.poll()
                    if code is None:
                        continue
                    del fleet[worker_id]
                    if code == 0 and queue.all_done(pending):
                        continue
                    # Heartbeat staleness already lets peers steal the
                    # dead worker's unit; here the death itself feeds
                    # the failure taxonomy and the respawn budget.
                    self.deaths += 1
                    if respawns_left > 0 and not queue.all_done(pending):
                        respawns_left -= 1
                        self.respawns += 1
                        incarnation = entry.incarnation + 1
                        fleet[worker_id] = self._spawn(
                            run_dir, worker_id, entry.index, incarnation
                        )
                if not fleet:
                    if queue.all_done(pending):
                        break
                    self._degrade(outcome, REASON_WORKERS_EXHAUSTED)
                    break
                if cfg.speculate:
                    self._speculate(queue, speculated)
                self.sleep(cfg.poll_s)
        finally:
            self._shutdown(fleet, degraded=outcome.degraded is not None)

    def _speculate(self, queue: WorkQueue, speculated: set) -> None:
        cfg = self.config
        durations = []
        for unit_id in queue.done_ids():
            info = queue.done_info(unit_id) or {}
            elapsed = info.get("elapsed_s")
            if isinstance(elapsed, (int, float)):
                durations.append(float(elapsed))
        if len(durations) < cfg.speculate_min_done:
            return
        threshold = cfg.speculate_factor * max(
            statistics.median(durations), 0.05
        )
        for lease in queue.live_leases():
            if lease["stale"] or lease["speculative"]:
                continue
            age = lease["age_s"]
            if not isinstance(age, (int, float)) or age <= threshold:
                continue
            key = (lease["unit_id"], lease["gen"])
            if key in speculated:
                continue
            if queue.request_speculation(lease["unit_id"], lease["gen"]):
                speculated.add(key)
                self.speculations += 1

    def _shutdown(
        self, fleet: Dict[str, _WorkerProc], degraded: bool
    ) -> None:
        grace = 0.0 if degraded else self.config.shutdown_grace_s
        deadline = self.clock() + grace
        for entry in fleet.values():
            while entry.proc.poll() is None and self.clock() < deadline:
                self.sleep(0.05)
            if entry.proc.poll() is None:
                entry.proc.kill()
                try:
                    entry.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass

    # -- merge and finalization ----------------------------------------------

    def _merge(self, campaign: Campaign, run_dir: Path) -> int:
        """Fold per-worker journals into the campaign journal; idempotent."""
        worker_records = read_worker_journals(
            run_dir, fingerprint=campaign.fingerprint
        )
        if not worker_records:
            return 0
        queue = WorkQueue(run_dir / "queue")
        winners: Dict[str, str] = {}
        if queue.done_dir.is_dir():
            for unit_id in queue.done_ids():
                info = queue.done_info(unit_id) or {}
                worker = info.get("worker")
                if isinstance(worker, str):
                    winners[unit_id] = worker
        existing_ok = set()
        existing_any = set()
        for record in self.journal.records():
            if record.get("type") != "unit":
                continue
            unit_id = record.get("unit_id")
            existing_any.add(unit_id)
            if record.get("status") == "ok":
                existing_ok.add(unit_id)
        appended = 0
        for record in merge_records(campaign, worker_records, winners):
            unit_id = record.get("unit_id")
            if record.get("status") == "ok":
                if unit_id in existing_ok:
                    continue
                existing_ok.add(unit_id)
            elif unit_id in existing_any:
                continue
            existing_any.add(unit_id)
            self.journal.append_record(record)
            appended += 1
            gen = record.get("gen")
            if (
                isinstance(gen, int) and gen > 1
                and not record.get("speculative")
            ):
                # The previous holder's heartbeat went stale.
                self.steals += 1
        return appended

    def _degrade(self, outcome, reason) -> None:
        if outcome.degraded is None:
            outcome.degraded = reason

    def _finalize(
        self,
        campaign: Campaign,
        skipped: Dict[str, Dict[str, object]],
        outcome: CampaignOutcome,
        guard: BudgetGuard,
    ) -> None:
        latest: Dict[str, Dict[str, object]] = {}
        for record in self.journal.records():
            if record.get("type") != "unit":
                continue
            unit_id = record.get("unit_id")
            if not isinstance(unit_id, str):
                continue
            prior = latest.get(unit_id)
            if (
                prior is not None
                and prior.get("status") == "ok"
                and record.get("status") != "ok"
            ):
                continue
            latest[unit_id] = record
        for unit in campaign.units:
            if unit.unit_id in skipped:
                outcome.outcomes.append(
                    UnitOutcome(
                        unit_id=unit.unit_id,
                        kind=unit.kind,
                        label=unit.label,
                        status=STATUS_SKIPPED,
                        result=skipped[unit.unit_id].get("result"),
                    )
                )
                continue
            record = latest.get(unit.unit_id)
            if record is None:
                outcome.outcomes.append(
                    UnitOutcome(
                        unit_id=unit.unit_id,
                        kind=unit.kind,
                        label=unit.label,
                        status=STATUS_CANCELLED,
                        error=outcome.degraded or REASON_WORKERS_EXHAUSTED,
                    )
                )
                continue
            status = (
                STATUS_OK if record.get("status") == "ok" else STATUS_FAILED
            )
            telemetry = record.get("telemetry")
            outcome.outcomes.append(
                UnitOutcome(
                    unit_id=unit.unit_id,
                    kind=unit.kind,
                    label=unit.label,
                    status=status,
                    attempts=int(record.get("attempts", 1) or 1),
                    failure_class=record.get("failure_class"),
                    error=record.get("error"),
                    elapsed_s=float(record.get("elapsed_s", 0.0) or 0.0),
                    result=record.get("result"),
                    telemetry=(
                        telemetry if isinstance(telemetry, dict) else None
                    ),
                )
            )
        if outcome.degraded is None and any(
            o.status == STATUS_CANCELLED for o in outcome.outcomes
        ):
            self._degrade(outcome, REASON_WORKERS_EXHAUSTED)
        outcome.wall_s = guard.elapsed()
        outcome.telemetry = rollup(u.telemetry for u in outcome.outcomes)
        self.journal.record_end(
            "partial" if outcome.partial else "complete",
            reason=outcome.degraded,
            telemetry=outcome.telemetry,
        )
