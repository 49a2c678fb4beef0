"""Crash-point torture: kill the recoverable engine at every barrier.

Where :mod:`repro.faults.campaign` mounts *adversarial* tampering, this
module mounts *power loss*. A crash campaign

1. replays a seeded workload once against
   :class:`~repro.secure.recoverable.RecoverableSecureMemory` with a
   recording hook to enumerate every persist-barrier firing (site label,
   global barrier sequence, workload op index, op class), plus once
   cleanly for the reference state digest;
2. for every enumerated barrier, forks the engine state just before the
   op that reaches it and kills it mid-update under several persistence
   modes — ``none`` (nothing pending survives), ``all`` (everything
   pending survives), and seeded ``partial:<k>`` modes that persist a
   random subset with random byte truncation (torn writes);
3. optionally re-kills the machine *during recovery* at the redo
   barriers, then recovers again;
4. recovers from the surviving persistent image, replays the remainder
   of the workload from the first non-durable write, and classifies:

   * :attr:`~repro.faults.campaign.Outcome.RECOVERED` — the final state
     digest is byte-identical to the uncrashed run (and every replayed
     read returned the expected data);
   * :attr:`~repro.faults.campaign.Outcome.TORN` — the crash left a
     state the engine *detected* (:class:`~repro.common.errors.RecoveryError`
     or a downstream security violation); acceptable, because nothing
     wrong was silently served;
   * :attr:`~repro.faults.campaign.Outcome.FALSE_ACCEPT` — silent
     corruption: recovery and replay completed but produced different
     bytes. This is the hard failure the sweep exists to rule out.

The sweep runs under a :class:`~repro.resilience.Supervisor` as one
work unit per crash op index, so a journaled torture run that dies
mid-sweep resumes from its journal byte-identically.
"""

from __future__ import annotations

import hashlib
import random
from copy import deepcopy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    CrashError,
    FaultInjectionError,
    SecurityViolation,
)
from repro.faults.campaign import Outcome
from repro.mem.backing import NvmRegion
from repro.metadata.split_counter import SplitCounterConfig
from repro.secure.functional import SECTOR_BYTES
from repro.secure.recoverable import (
    FORMAT_SITE,
    RECOVERY_SITES,
    UPDATE_SITES,
    RecoverableSecureMemory,
)

if TYPE_CHECKING:  # pragma: no cover - hint only; resilience loads lazily
    from repro.resilience import CampaignOutcome

#: The non-partial persistence modes every barrier is killed under.
BASE_MODES: Tuple[str, ...] = ("none", "all")

#: The op classes a sweep is expected to cover (crossed with sites in
#: the coverage matrix; ``format``/``recovery`` classes ride along).
OP_CLASSES: Tuple[str, ...] = ("read", "write", "writeback", "bmt-update")


@dataclass(frozen=True)
class CrashCampaignSpec:
    """A fully seeded, reproducible crash-torture definition.

    The geometry is deliberately tiny and hot: few sectors, a 2-bit
    minor counter, and small groups, so minor overflows (the
    ``bmt-update`` op class) and WAL checkpoints happen within a short
    workload and every persist-barrier site fires many times.
    """

    name: str
    seed: int = 20260808
    size_bytes: int = 1024
    num_ops: int = 36
    #: Distinct sectors the workload hammers (small = fast overflows).
    hot_sectors: int = 6
    #: Every Nth op is an explicit WAL checkpoint (the ``writeback``
    #: class); 0 disables.
    checkpoint_every: int = 12
    #: Seeded ``partial:<k>`` persistence modes per barrier (torn writes).
    partial_trials: int = 1
    #: Also kill the machine during recovery redo, then recover again.
    recovery_kills: bool = True
    minor_bits: int = 2
    sectors_per_group: int = 4

    def counter_config(self) -> SplitCounterConfig:
        return SplitCounterConfig(
            minor_bits=self.minor_bits,
            sectors_per_group=self.sectors_per_group,
        )

    def modes(self) -> Tuple[str, ...]:
        return BASE_MODES + tuple(
            f"partial:{k}" for k in range(self.partial_trials)
        )


#: Built-in crash campaigns. ``crash`` is the CI job; ``crash-full``
#: widens the workload and the torn-write sampling (the ``slow`` sweep).
CRASH_CAMPAIGNS: Dict[str, CrashCampaignSpec] = {
    "crash": CrashCampaignSpec(name="crash"),
    "crash-full": CrashCampaignSpec(
        name="crash-full",
        seed=20260809,
        size_bytes=2048,
        num_ops=72,
        hot_sectors=10,
        checkpoint_every=16,
        partial_trials=3,
    ),
}


def crash_campaign_spec(name: str) -> CrashCampaignSpec:
    """Look up a built-in crash campaign by name."""
    try:
        return CRASH_CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CRASH_CAMPAIGNS))
        raise FaultInjectionError(
            f"unknown crash campaign {name!r} (known: {known})"
        ) from None


#: One workload operation: ``("write", addr, data)``, ``("read", addr,
#: b"")`` or ``("checkpoint", 0, b"")``.
CrashOp = Tuple[str, int, bytes]


def build_crash_ops(spec: CrashCampaignSpec) -> List[CrashOp]:
    """Seeded workload hitting all four op classes within *num_ops*."""
    rng = random.Random(spec.seed)
    sectors = min(spec.hot_sectors, spec.size_bytes // SECTOR_BYTES)
    ops: List[CrashOp] = []
    for i in range(spec.num_ops):
        if spec.checkpoint_every and i and i % spec.checkpoint_every == 0:
            ops.append(("checkpoint", 0, b""))
            continue
        address = SECTOR_BYTES * rng.randrange(sectors)
        if rng.random() < 0.65:
            data = bytes(rng.randrange(256) for _ in range(SECTOR_BYTES))
            ops.append(("write", address, data))
        else:
            ops.append(("read", address, b""))
    return ops


def crash_ops_from_accesses(
    spec: CrashCampaignSpec,
    accesses: Sequence[Tuple[int, bool]],
) -> List[CrashOp]:
    """Shape a benchmark access stream into a crash-torture workload.

    *accesses* is a ``(sector_address, is_write)`` sequence (e.g.
    distilled from a benchmark trace); addresses are folded into the
    campaign's tiny hot footprint so the sweep keeps benchmark-shaped
    locality while staying cheap. A deterministic tail is appended to
    guarantee every op class fires regardless of the benchmark's
    read/write mix: enough same-sector writes to overflow a minor
    counter (the ``bmt-update`` class), one read, and one checkpoint.
    """
    rng = random.Random(spec.seed)
    sectors = min(spec.hot_sectors, spec.size_bytes // SECTOR_BYTES)
    ops: List[CrashOp] = []
    for address, is_write in list(accesses)[: spec.num_ops]:
        if (
            spec.checkpoint_every
            and ops
            and len(ops) % spec.checkpoint_every == 0
        ):
            ops.append(("checkpoint", 0, b""))
        folded = (address // SECTOR_BYTES % sectors) * SECTOR_BYTES
        if is_write:
            data = bytes(rng.randrange(256) for _ in range(SECTOR_BYTES))
            ops.append(("write", folded, data))
        else:
            ops.append(("read", folded, b""))
    for _ in range(spec.counter_config().minor_limit + 1):
        data = bytes(rng.randrange(256) for _ in range(SECTOR_BYTES))
        ops.append(("write", 0, data))
    ops.append(("read", 0, b""))
    ops.append(("checkpoint", 0, b""))
    return ops


def _ops_digest(ops: Sequence[CrashOp]) -> str:
    digest = hashlib.sha256()
    for kind, address, data in ops:
        digest.update(f"{kind}:{address}:".encode("ascii"))
        digest.update(data)
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class BarrierEvent:
    """One persist-barrier firing observed during the dry run."""

    site: str
    barrier_seq: int
    #: Workload op in flight when the barrier fired (-1 = provisioning).
    op_index: int
    op_class: str


def _apply_op(engine: RecoverableSecureMemory, op: CrashOp) -> None:
    kind, address, data = op
    if kind == "write":
        engine.write(address, data)
    elif kind == "read":
        engine.read(address, SECTOR_BYTES)
    elif kind == "checkpoint":
        engine.checkpoint()
    else:
        raise FaultInjectionError(f"unknown crash op kind {kind!r}")


def _build_engine(
    spec: CrashCampaignSpec, nvm: Optional[NvmRegion] = None, **kwargs
) -> RecoverableSecureMemory:
    return RecoverableSecureMemory(
        spec.size_bytes,
        counter_config=spec.counter_config(),
        nvm=nvm,
        **kwargs,
    )


def nvm_geometry_bytes(spec: CrashCampaignSpec) -> int:
    """Size of the NVM region the campaign's engine geometry needs."""
    return _build_engine(spec).nvm_bytes


def enumerate_barriers(
    spec: CrashCampaignSpec, ops: Sequence[CrashOp]
) -> List[BarrierEvent]:
    """Dry-run the workload, recording every persist-barrier firing."""
    events: List[BarrierEvent] = []
    cursor = {"op": -1}
    holder: Dict[str, RecoverableSecureMemory] = {}

    def recorder(site: str, seq: int, pending) -> None:
        engine = holder.get("engine")
        op_class = engine.last_op_class if engine is not None else "format"
        events.append(BarrierEvent(site, seq, cursor["op"], op_class))

    region = NvmRegion(nvm_geometry_bytes(spec))
    region.install_barrier_hook(recorder)
    engine = _build_engine(spec, nvm=region, fresh=True)
    holder["engine"] = engine
    for i, op in enumerate(ops):
        cursor["op"] = i
        _apply_op(engine, op)
    region.install_barrier_hook(None)
    return events


def reference_digest(
    spec: CrashCampaignSpec, ops: Sequence[CrashOp]
) -> Tuple[str, int]:
    """(state digest, committed seq) of the uncrashed end state."""
    engine = _build_engine(spec)
    for op in ops:
        _apply_op(engine, op)
    return engine.state_digest(), engine.committed_seq


@dataclass(frozen=True)
class CrashTrial:
    """One planned kill: a barrier event × persistence mode."""

    event: BarrierEvent
    #: ``"none"`` / ``"all"`` / ``"partial:<k>"``.
    mode: str
    #: Optionally re-kill during recovery: ``(redo site, mode)``.
    recovery_kill: Optional[Tuple[str, str]] = None


def build_crash_trials(
    spec: CrashCampaignSpec, events: Sequence[BarrierEvent]
) -> List[CrashTrial]:
    """The systematic sweep: every barrier × every persistence mode.

    Recovery re-kills are added for the write-transaction sites (the
    only ones whose crash can leave an uncommitted WAL record for the
    redo path to replay).
    """
    trials = [
        CrashTrial(event=event, mode=mode)
        for event in events
        for mode in spec.modes()
    ]
    if spec.recovery_kills:
        redo_reachable = {"write:wal-append", "write:home-apply",
                          "write:root-commit"}
        for event in events:
            if event.site not in redo_reachable:
                continue
            for i, redo_site in enumerate(RECOVERY_SITES):
                # Alternate the persistence mode of the second kill so
                # both torn and clean redo crashes are exercised.
                mode = BASE_MODES[(event.barrier_seq + i) % len(BASE_MODES)]
                trials.append(
                    CrashTrial(
                        event=event,
                        mode="all",
                        recovery_kill=(redo_site, mode),
                    )
                )
    return trials


def _select_persisted(
    pending: Tuple[Tuple[int, bytes], ...], mode: str, rng: random.Random
) -> Tuple[Tuple[int, bytes], ...]:
    if mode == "none":
        return ()
    if mode == "all":
        return pending
    if mode.startswith("partial:"):
        chosen = []
        for address, data in pending:
            roll = rng.random()
            if roll < 0.4:
                continue  # write lost entirely
            if roll < 0.7 and len(data) > 1:
                # Torn write: only a prefix reached the medium.
                chosen.append((address, data[: rng.randrange(1, len(data))]))
            else:
                chosen.append((address, data))
        return tuple(chosen)
    raise FaultInjectionError(f"unknown crash mode {mode!r}")


def _make_kill_hook(region: NvmRegion, trial: CrashTrial,
                    rng: random.Random):
    """Hook that kills *region* exactly at the trial's barrier seq."""

    def hook(site: str, seq: int, pending) -> None:
        if seq != trial.event.barrier_seq:
            return
        if site != trial.event.site:
            raise FaultInjectionError(
                f"barrier seq {seq} fired at site {site!r}, but the dry "
                f"run recorded {trial.event.site!r} — nondeterministic "
                "workload replay"
            )
        region.crash(_select_persisted(pending, trial.mode, rng))
        raise CrashError(
            f"injected crash ({trial.mode}) at {site}",
            site=site, barrier_seq=seq,
        )

    return hook


def _make_site_kill_hook(region: NvmRegion, site_name: str, mode: str,
                         rng: random.Random):
    """Hook that kills at the first firing of *site_name* (recovery)."""

    def hook(site: str, seq: int, pending) -> None:
        if site != site_name:
            return
        region.crash(_select_persisted(pending, mode, rng))
        raise CrashError(
            f"injected recovery crash ({mode}) at {site}",
            site=site, barrier_seq=seq,
        )

    return hook


@dataclass(frozen=True)
class CrashTrialRecord:
    """One executed kill and its classified result."""

    site: str
    op_class: str
    op_index: int
    barrier_seq: int
    mode: str
    recovery_kill: Optional[str]
    #: Whether the planned recovery re-kill actually fired (it cannot
    #: when the first crash left nothing for the redo path to replay).
    recovery_fired: bool
    outcome: Outcome
    #: Durable transaction count recovery settled on (-1 when recovery
    #: itself failed).
    committed_seq: int
    detail: str


def _trial_rng(spec: CrashCampaignSpec, trial: CrashTrial) -> random.Random:
    material = (
        f"{spec.seed}:{trial.event.barrier_seq}:{trial.mode}:"
        f"{trial.recovery_kill}"
    )
    return random.Random(
        int.from_bytes(
            hashlib.sha256(material.encode("ascii")).digest()[:8], "little"
        )
    )


def _recover_engine(
    spec: CrashCampaignSpec,
    image: NvmRegion,
    trial: CrashTrial,
    rng: random.Random,
    fired: Dict[str, bool],
) -> RecoverableSecureMemory:
    """Recover from *image*, optionally surviving a second kill.

    ``fired["recovery"]`` reports whether the planned re-kill actually
    fired — it cannot when the first crash left no redo work. The flag
    is written *before* the second recovery attempt so a detected
    (TORN) outcome still attributes the redo site correctly.
    """
    if trial.recovery_kill is not None:
        redo_site, mode = trial.recovery_kill
        image.install_barrier_hook(
            _make_site_kill_hook(image, redo_site, mode, rng)
        )
        try:
            engine = _build_engine(spec, nvm=image)
        except CrashError:
            # The machine died again mid-redo; recovery must be
            # restartable from whatever that second crash persisted.
            fired["recovery"] = True
            return _build_engine(spec, nvm=image.persistent_image())
        image.install_barrier_hook(None)
        return engine
    return _build_engine(spec, nvm=image)


def _replay_and_classify(
    spec: CrashCampaignSpec,
    engine: RecoverableSecureMemory,
    ops: Sequence[CrashOp],
    ref_digest: str,
    ref_committed: int,
) -> Tuple[Outcome, str]:
    """Resume the workload on a recovered engine and compare end states.

    The resume point follows from the persist discipline alone: exactly
    one committed transaction per write op, so the first
    ``engine.committed_seq`` writes (and everything interleaved before
    the next write) are durable and must *not* be replayed.
    """
    shadow: Dict[int, bytes] = {}
    remaining = engine.committed_seq
    resume = 0
    if remaining:
        for i, (kind, address, data) in enumerate(ops):
            if kind != "write":
                continue
            shadow[address] = data
            remaining -= 1
            if remaining == 0:
                resume = i + 1
                break
    if remaining:
        return (
            Outcome.FALSE_ACCEPT,
            f"recovered committed_seq {engine.committed_seq} exceeds the "
            f"workload's write count",
        )
    # Reads/checkpoints between the last durable write and the first
    # non-durable one are replayed again — they have no durable effect,
    # and re-running the reads gives detection another chance to fire.
    for kind, address, data in ops[resume:]:
        if kind == "write":
            engine.write(address, data)
            shadow[address] = data
        elif kind == "read":
            got = engine.read(address, SECTOR_BYTES)
            expected = shadow.get(address, b"\x00" * SECTOR_BYTES)
            if got != expected:
                return (
                    Outcome.FALSE_ACCEPT,
                    f"replayed read at {address:#x} silently returned "
                    "wrong data after recovery",
                )
        else:
            engine.checkpoint()
    if engine.committed_seq != ref_committed:
        return (
            Outcome.FALSE_ACCEPT,
            f"replay converged on committed_seq {engine.committed_seq}, "
            f"reference has {ref_committed}",
        )
    if engine.state_digest() != ref_digest:
        return (
            Outcome.FALSE_ACCEPT,
            "state digest diverged from the uncrashed run",
        )
    return Outcome.RECOVERED, "recovered and replayed to byte-identity"


def run_crash_trial(
    spec: CrashCampaignSpec,
    ops: Sequence[CrashOp],
    trial: CrashTrial,
    base: Optional[RecoverableSecureMemory],
    ref_digest: str,
    ref_committed: int,
) -> CrashTrialRecord:
    """Execute one kill from a pre-advanced engine state.

    *base* is the engine advanced to just before the trial's op (``None``
    for provisioning-time trials, which build from a blank region). The
    caller owns forking: *base* is deepcopied here and never mutated.
    """
    rng = _trial_rng(spec, trial)
    if trial.event.op_index < 0:
        region = NvmRegion(nvm_geometry_bytes(spec))
        region.install_barrier_hook(_make_kill_hook(region, trial, rng))
        crashed = None
        try:
            _build_engine(spec, nvm=region, fresh=True)
        except CrashError:
            crashed = region
        if crashed is None:
            raise FaultInjectionError(
                f"provisioning crash at seq {trial.event.barrier_seq} "
                "never fired"
            )
    else:
        fork = deepcopy(base)
        fork.nvm.install_barrier_hook(
            _make_kill_hook(fork.nvm, trial, rng)
        )
        crashed = None
        try:
            _apply_op(fork, ops[trial.event.op_index])
        except CrashError:
            crashed = fork.nvm
        if crashed is None:
            raise FaultInjectionError(
                f"crash at barrier seq {trial.event.barrier_seq} "
                f"({trial.event.site}) never fired during op "
                f"{trial.event.op_index}"
            )

    outcome: Outcome
    committed = -1
    fired: Dict[str, bool] = {"recovery": False}
    try:
        engine = _recover_engine(
            spec, crashed.persistent_image(), trial, rng, fired
        )
        committed = engine.committed_seq
        outcome, detail = _replay_and_classify(
            spec, engine, ops, ref_digest, ref_committed
        )
    except SecurityViolation as exc:
        outcome = Outcome.TORN
        detail = f"{type(exc).__name__}: {exc}"
    return CrashTrialRecord(
        site=trial.event.site,
        op_class=trial.event.op_class,
        op_index=trial.event.op_index,
        barrier_seq=trial.event.barrier_seq,
        mode=trial.mode,
        recovery_kill=(
            ":".join(trial.recovery_kill) if trial.recovery_kill else None
        ),
        recovery_fired=fired["recovery"],
        outcome=outcome,
        committed_seq=committed,
        detail=detail,
    )


@dataclass
class CrashCell:
    """Aggregated outcomes of one (site, op class) coverage cell."""

    trials: int = 0
    recovered: int = 0
    torn: int = 0
    silent: int = 0

    def absorb(self, outcome: Outcome) -> None:
        self.trials += 1
        if outcome is Outcome.RECOVERED:
            self.recovered += 1
        elif outcome is Outcome.TORN:
            self.torn += 1
        else:
            self.silent += 1


@dataclass
class CrashReport:
    """Everything a crash campaign learned, plus the verdict."""

    spec: CrashCampaignSpec
    #: The supervised outcome of the per-op units; a partial one means
    #: some ops never reported.
    supervision: CampaignOutcome
    records: List[CrashTrialRecord] = field(default_factory=list)
    #: (site, op class) -> aggregated cell.
    cells: Dict[Tuple[str, str], CrashCell] = field(default_factory=dict)

    def absorb(self, record: CrashTrialRecord) -> None:
        self.records.append(record)
        key = (record.site, record.op_class)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = CrashCell()
        cell.absorb(record.outcome)

    @property
    def silent_corruptions(self) -> List[CrashTrialRecord]:
        """The hard failures: crashes that survived *undetected*."""
        return [
            r for r in self.records if r.outcome is Outcome.FALSE_ACCEPT
        ]

    @property
    def sites_covered(self) -> Tuple[str, ...]:
        sites = {r.site for r in self.records}
        for r in self.records:
            if r.recovery_kill and r.recovery_fired:
                sites.add(r.recovery_kill.rsplit(":", 1)[0])
        return tuple(sorted(sites))

    @property
    def op_classes_covered(self) -> Tuple[str, ...]:
        return tuple(sorted({r.op_class for r in self.records}))

    @property
    def complete(self) -> bool:
        """Did the sweep reach every site and steady-state op class?"""
        sites = set(self.sites_covered)
        expected = set(UPDATE_SITES) | {FORMAT_SITE}
        if self.spec.recovery_kills:
            expected |= set(RECOVERY_SITES)
        return expected <= sites and set(OP_CLASSES) <= set(
            self.op_classes_covered
        )

    @property
    def ok(self) -> bool:
        """No silent corruption, and full coverage, among the ops that
        reported.

        It covers only the units that completed; ``supervision.partial``
        says whether any op is missing.
        """
        return not self.silent_corruptions and self.complete


def _record_payload(record: CrashTrialRecord) -> Dict[str, object]:
    return {
        "site": record.site,
        "op_class": record.op_class,
        "op_index": record.op_index,
        "barrier_seq": record.barrier_seq,
        "mode": record.mode,
        "recovery_kill": record.recovery_kill,
        "recovery_fired": record.recovery_fired,
        "outcome": record.outcome.value,
        "committed_seq": record.committed_seq,
        "detail": record.detail,
    }


def _record_from_payload(payload: Dict[str, object]) -> CrashTrialRecord:
    return CrashTrialRecord(
        site=payload["site"],
        op_class=payload["op_class"],
        op_index=payload["op_index"],
        barrier_seq=payload["barrier_seq"],
        mode=payload["mode"],
        recovery_kill=payload["recovery_kill"],
        recovery_fired=payload["recovery_fired"],
        outcome=Outcome(payload["outcome"]),
        committed_seq=payload["committed_seq"],
        detail=payload["detail"],
    )


class _Cursor:
    """One engine advanced forward through the workload, shared by units.

    The per-op units of a crash sweep each need an engine advanced to
    just before their op. Sharing one engine that only moves forward
    keeps a fresh sweep linear in ops, as a single loop would be. The
    engine is rebuilt from scratch when a unit is behind it (the same
    campaign run again), and dropped when advancing it raised, since an
    op may have half-applied.
    """

    def __init__(self, spec: CrashCampaignSpec, ops: Sequence[CrashOp]):
        self.spec = spec
        self.ops = ops
        self.engine: Optional[RecoverableSecureMemory] = None
        self.at = 0

    def advance(self, op_index: int) -> RecoverableSecureMemory:
        """The shared engine, advanced to just before ``ops[op_index]``."""
        if self.engine is None or self.at > op_index:
            self.engine = _build_engine(self.spec)
            self.at = 0
        try:
            while self.at < op_index:
                _apply_op(self.engine, self.ops[self.at])
                self.at += 1
        except BaseException:
            self.engine = None
            raise
        return self.engine


def crash_campaign(
    spec: CrashCampaignSpec,
    ops: Sequence[CrashOp],
    trials: Sequence[CrashTrial],
    ref_digest: str,
    ref_committed: int,
):
    """Decompose a crash sweep into per-op-index work units.

    The crash op index is the natural unit: all its trials fork from
    one advanced engine state (a shared :class:`_Cursor`), and units
    share nothing else but the seeded workload. Identity covers the
    spec plus the ops digest, so a journaled unit result is only ever
    reused against the exact same torture.
    """
    from repro.resilience import Campaign, WorkUnit

    ops_id = _ops_digest(ops)
    by_op: Dict[int, List[CrashTrial]] = {}
    for trial in trials:
        by_op.setdefault(trial.event.op_index, []).append(trial)
    cursor = _Cursor(spec, ops)

    def runner_for(op_index: int, group: List[CrashTrial]):
        def run() -> List[Dict[str, object]]:
            base = cursor.advance(op_index) if op_index >= 0 else None
            return [
                _record_payload(
                    run_crash_trial(
                        spec, ops, trial, base, ref_digest, ref_committed
                    )
                )
                for trial in group
            ]

        return run

    units = [
        WorkUnit(
            kind="crash-op",
            params={
                "campaign": spec.name,
                "seed": spec.seed,
                "ops": ops_id,
                "op_index": op_index,
                "trials": len(group),
            },
            runner=runner_for(op_index, group),
            label=f"{spec.name}:op{op_index}",
        )
        for op_index, group in sorted(by_op.items())
    ]
    return Campaign(name=f"crash:{spec.name}", units=units)


def run_crash_campaign(
    spec: CrashCampaignSpec,
    ops: Optional[Sequence[CrashOp]] = None,
    supervisor=None,
) -> CrashReport:
    """Mount the full systematic sweep for *spec*.

    The sweep runs as per-op work units under *supervisor*: each is
    retried on transient failure, journaled durably when the supervisor
    names a run, and skipped on resume, so a supervisor that died
    mid-torture continues byte-identically. The outcome rides along as
    ``report.supervision`` (*supervisor* defaults to a plain
    :class:`~repro.resilience.Supervisor`, which journals nothing). An
    op whose unit raised is missing from ``records``, so ``report.ok``
    holds only together with ``report.supervision.ok``.
    """
    from repro.resilience import Supervisor

    if ops is None:
        ops = build_crash_ops(spec)
    events = enumerate_barriers(spec, ops)
    ref_digest, ref_committed = reference_digest(spec, ops)
    trials = build_crash_trials(spec, events)
    campaign = crash_campaign(spec, ops, trials, ref_digest, ref_committed)
    if supervisor is None:
        supervisor = Supervisor()
    outcome = supervisor.run(campaign)
    report = CrashReport(spec=spec, supervision=outcome)
    for unit in campaign.units:
        for payload in outcome.results.get(unit.unit_id) or ():
            report.absorb(_record_from_payload(payload))
    return report
