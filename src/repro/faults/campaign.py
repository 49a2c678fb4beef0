"""Campaign orchestration: plans × engines → detection matrix.

A campaign replays a victim workload against each engine variant,
mounts every :class:`~repro.faults.plan.InjectionPlan` from a seeded
generator, probes the attacked address, and classifies the result:

* ``DETECTED`` — the expected exception class was raised naming the
  attacked address;
* ``BENIGN`` — no exception, but the *correct* data came back (only
  acceptable for kinds in :data:`~repro.faults.plan.BENIGN_OK_KINDS`,
  e.g. MAC-region tampering bypassed by a legitimate value match of the
  genuine plaintext);
* ``FALSE_ACCEPT`` — tampered/garbage data was returned silently.
  Forbidden outright except for :data:`~repro.faults.plan.QUANTIFIED_KINDS`,
  where the paper's argument is probabilistic: the measured rate must
  stay at or below the MAC collision-rate bound
  (:func:`mac_collision_rate`, 2^-64 for 8-byte tags);
* ``MISSED`` — wrong exception class, or the wrong address blamed.

State forking keeps cost linear in the workload: the op prefix is
replayed once per engine, a deepcopy checkpoint is taken at each
distinct trigger index, and every trial forks from its checkpoint.
"""

from __future__ import annotations

import hashlib
from copy import deepcopy
from dataclasses import dataclass, field
from enum import Enum
from math import comb
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    FaultInjectionError,
    IntegrityError,
    ReplayError,
)
from repro.common.rng import RngStream
from repro.faults.hooks import apply_fault
from repro.faults.plan import (
    BENIGN_OK_KINDS,
    ENGINE_VARIANTS,
    QUANTIFIED_KINDS,
    SECTOR_BYTES,
    FaultKind,
    InjectionPlan,
)
from repro.faults.workload import Op, synthetic_ops, value_sweep_ops
from repro.metadata.split_counter import SplitCounterConfig
from repro.secure.functional import SecureMemory
from repro.secure.value_cache import ValueCacheConfig

if TYPE_CHECKING:  # pragma: no cover - hint only; resilience loads lazily
    from repro.resilience import CampaignOutcome

#: The exception class each fault kind must be caught with.
EXPECTED_EXCEPTION = {
    FaultKind.BITFLIP: IntegrityError,
    FaultKind.SPLICE: IntegrityError,
    FaultKind.MAC_CORRUPT: IntegrityError,
    FaultKind.DROPPED_WRITE: IntegrityError,
    FaultKind.REPLAY: ReplayError,
    FaultKind.COUNTER_CORRUPT: ReplayError,
    FaultKind.BMT_NODE: ReplayError,
}


def mac_collision_rate(tag_bytes: int = 8) -> float:
    """The paper's bound on silent acceptance: 2^-(8·tag_bytes)."""
    return 2.0 ** (-8 * tag_bytes)


def value_cache_false_accept_rate(
    config: ValueCacheConfig, resident_keys: int
) -> float:
    """Analytic false-accept probability of one tampered sector.

    A tampered AES block decrypts to uniform values; each of the unit's
    ``values_per_unit`` values hits a cache holding ``resident_keys``
    distinct keys with probability ``resident_keys / 2^effective_bits``,
    the unit passes when ``hits_required`` of them hit, and every unit
    of the sector must pass (paper Section IV-C, Eq. 1).
    """
    space = 2 ** config.effective_value_bits
    p = min(1.0, resident_keys / space)
    n = config.values_per_unit
    per_unit = sum(
        comb(n, k) * p**k * (1.0 - p) ** (n - k)
        for k in range(config.hits_required, n + 1)
    )
    units = SECTOR_BYTES * 8 // (config.value_bits * n)
    return per_unit**units


class Outcome(Enum):
    """Classification of one injection trial.

    The first four classify adversarial tampering; the last two classify
    crash-point trials (:mod:`repro.faults.crashpoints`): ``RECOVERED``
    means post-crash recovery plus replay reproduced the uncrashed
    state byte-for-byte, ``TORN`` means the crash left a state the
    engine *detected* as unrecoverable (a
    :class:`~repro.common.errors.RecoveryError` or downstream security
    violation). Silent corruption after a crash is classified as
    ``FALSE_ACCEPT`` — the one hard failure of the crash taxonomy.
    """

    DETECTED = "detected"
    BENIGN = "benign"
    FALSE_ACCEPT = "false_accept"
    MISSED = "missed"
    RECOVERED = "recovered"
    TORN = "torn"


@dataclass(frozen=True)
class CampaignSpec:
    """A fully seeded, reproducible campaign definition."""

    name: str
    seed: int = 7
    size_bytes: int = 4096
    #: Victim ops replayed before the latest trigger point.
    warmup_ops: int = 48
    trials_per_kind: int = 2
    kinds: Tuple[FaultKind, ...] = tuple(FaultKind)
    engines: Tuple[str, ...] = ENGINE_VARIANTS
    #: ``"synthetic"`` (seeded mixed reads/writes) or ``"value-sweep"``
    #: (key-saturating writes for the value-stress regime).
    workload: str = "synthetic"
    #: Value-cache geometry for the plutus engine; ``None`` = paper
    #: defaults. The value-stress campaign weakens this on purpose.
    value_cache_config: Optional[ValueCacheConfig] = None
    mac_tag_bytes: int = 8
    #: Enforced ceiling on quantified false-accept rates
    #: (:func:`mac_collision_rate` of the tag width); ``None`` turns
    #: enforcement off and the rate is report-only.
    fa_bound: Optional[float] = 2.0**-64

    def __post_init__(self) -> None:
        if self.workload not in ("synthetic", "value-sweep"):
            raise FaultInjectionError(
                f"unknown workload kind {self.workload!r}"
            )
        unknown = set(self.engines) - set(ENGINE_VARIANTS)
        if unknown:
            raise FaultInjectionError(
                f"unknown engine variants: {sorted(unknown)}"
            )
        if self.trials_per_kind <= 0:
            raise FaultInjectionError("trials_per_kind must be positive")


#: Built-in campaigns. ``quick`` is the CI smoke; ``full`` adds trials,
#: a taller tree (two corruptible stored levels), and a bigger footprint;
#: ``value-stress`` deliberately weakens the value cache (8 effective
#: bits) under a key-saturating workload so false accepts become
#: frequent enough to *measure* and compare against the analytic model.
CAMPAIGNS: Dict[str, CampaignSpec] = {
    "quick": CampaignSpec(name="quick", seed=7, size_bytes=4096,
                          warmup_ops=48, trials_per_kind=2),
    "full": CampaignSpec(name="full", seed=11, size_bytes=32768,
                         warmup_ops=120, trials_per_kind=4),
    "value-stress": CampaignSpec(
        name="value-stress",
        seed=13,
        size_bytes=4096,
        workload="value-sweep",
        kinds=(FaultKind.BITFLIP, FaultKind.DROPPED_WRITE),
        engines=("plutus",),
        trials_per_kind=48,
        value_cache_config=ValueCacheConfig(mask_bits=24),
        fa_bound=None,
    ),
}


def campaign_spec(name: str) -> CampaignSpec:
    """Look up a built-in campaign by name."""
    try:
        return CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise FaultInjectionError(
            f"unknown campaign {name!r} (known: {known})"
        ) from None


def build_engine(variant: str, spec: CampaignSpec) -> SecureMemory:
    """Instantiate one engine variant under the campaign's geometry."""
    vcc = (
        spec.value_cache_config
        if spec.value_cache_config is not None
        else ValueCacheConfig()
    )
    if variant == "plutus":
        return SecureMemory(
            spec.size_bytes, mode="plutus", value_cache_config=vcc,
            mac_tag_bytes=spec.mac_tag_bytes, label="plutus",
        )
    if variant == "pssm":
        return SecureMemory(
            spec.size_bytes, mode="pssm",
            mac_tag_bytes=spec.mac_tag_bytes, label="pssm",
        )
    if variant == "functional":
        return SecureMemory(
            spec.size_bytes, mode="plutus", value_cache_config=None,
            mac_tag_bytes=spec.mac_tag_bytes, label="functional",
        )
    if variant == "recoverable":
        from repro.secure.recoverable import RecoverableSecureMemory

        # The crash-recoverable engine under adversarial (not crash)
        # injection: its volatile attack surfaces are the same as the
        # functional reference, so every covered fault must be detected.
        return RecoverableSecureMemory(
            spec.size_bytes, mac_tag_bytes=spec.mac_tag_bytes,
        )
    raise FaultInjectionError(f"unknown engine variant {variant!r}")


def _default_ops(spec: CampaignSpec) -> List[Op]:
    if spec.workload == "value-sweep":
        return value_sweep_ops(spec.size_bytes)
    return synthetic_ops(spec.seed, spec.warmup_ops, spec.size_bytes)


def _tree_level_sizes(num_groups: int, arity: int) -> List[int]:
    sizes = [num_groups]
    while sizes[-1] > 1:
        sizes.append(-(-sizes[-1] // arity))
    return sizes


def _viable_tree_levels(num_groups: int, arity: int, group: int) -> List[int]:
    """Stored levels at which *group*'s verification path has a sibling."""
    sizes = _tree_level_sizes(num_groups, arity)
    viable = []
    child = group
    for level in range(len(sizes) - 1):
        parent = child // arity
        start = parent * arity
        end = min(start + arity, sizes[level])
        if end - start > 1:
            viable.append(level)
        child = parent
    return viable


def build_plans(spec: CampaignSpec, ops: Sequence[Op]) -> List[InjectionPlan]:
    """Seeded plan generation over the workload's written footprint.

    Targets are drawn from addresses the workload has written by the
    trigger point (unwritten memory reads as zeros and is verified by
    nothing, so faults there would be vacuous).
    """
    if not ops:
        raise FaultInjectionError("campaign workload is empty")
    rng = RngStream(spec.seed, name=f"faults:{spec.name}")
    max_trigger = len(ops)
    candidates = sorted({max_trigger, max(2, (max_trigger * 2) // 3)})

    first_write: Dict[int, int] = {}
    for i, op in enumerate(ops):
        if op.write and op.address not in first_write:
            first_write[op.address] = i
    written_at = {
        t: sorted(a for a, i in first_write.items() if i < t)
        for t in candidates
    }
    for t, pool in written_at.items():
        if not pool:
            raise FaultInjectionError(
                f"no written addresses before trigger {t}"
            )

    cfg = SplitCounterConfig()
    num_groups = -(-(spec.size_bytes // SECTOR_BYTES) // cfg.sectors_per_group)

    plans: List[InjectionPlan] = []
    for kind in spec.kinds:
        for trial in range(spec.trials_per_kind):
            trigger = candidates[int(rng.integers(0, len(candidates)))]
            pool = written_at[trigger]
            address = int(rng.choice(pool))
            kwargs: Dict[str, object] = {}
            if kind is FaultKind.BITFLIP:
                kwargs["bit"] = int(rng.integers(0, SECTOR_BYTES * 8))
            elif kind is FaultKind.SPLICE:
                others = [a for a in pool if a != address]
                if not others:
                    raise FaultInjectionError(
                        "splice needs two distinct written addresses"
                    )
                kwargs["src_address"] = int(rng.choice(others))
            elif kind is FaultKind.COUNTER_CORRUPT:
                kwargs["bit"] = int(rng.integers(0, cfg.group_bytes * 8))
            elif kind is FaultKind.MAC_CORRUPT:
                kwargs["bit"] = int(rng.integers(0, spec.mac_tag_bytes * 8))
            elif kind is FaultKind.BMT_NODE:
                group = (address // SECTOR_BYTES) // cfg.sectors_per_group
                levels = _viable_tree_levels(num_groups, 16, group)
                if not levels:
                    raise FaultInjectionError(
                        "memory too small for a BMT sibling attack "
                        f"({num_groups} counter groups)"
                    )
                kwargs["tree_level"] = int(rng.choice(levels))
            elif kind is FaultKind.DROPPED_WRITE:
                kwargs["stream"] = "data" if trial % 2 == 0 else "mac"
            plans.append(
                InjectionPlan(kind=kind, address=address,
                              trigger_index=trigger, **kwargs)
            )
    return plans


def _fresh_payload(spec: CampaignSpec, plan: InjectionPlan) -> bytes:
    """Deterministic advancing payload for temporal kinds."""
    return hashlib.sha256(
        f"fresh:{spec.seed}:{plan.kind.value}:{plan.address:#x}:"
        f"{plan.trigger_index}".encode("ascii")
    ).digest()


@dataclass(frozen=True)
class TrialRecord:
    """One (engine, plan) injection and its classified result."""

    engine: str
    plan: InjectionPlan
    outcome: Outcome
    #: Exception class name raised by the probe (``None`` if accepted).
    exception: Optional[str]
    detail: str


@dataclass
class MatrixCell:
    """Aggregated outcomes of one (engine, fault kind) cell."""

    trials: int = 0
    detected: int = 0
    benign: int = 0
    false_accepts: int = 0
    missed: int = 0
    recovered: int = 0
    torn: int = 0

    @property
    def false_accept_rate(self) -> float:
        return self.false_accepts / self.trials if self.trials else 0.0

    def absorb(self, outcome: Outcome) -> None:
        self.trials += 1
        if outcome is Outcome.DETECTED:
            self.detected += 1
        elif outcome is Outcome.BENIGN:
            self.benign += 1
        elif outcome is Outcome.FALSE_ACCEPT:
            self.false_accepts += 1
        elif outcome is Outcome.RECOVERED:
            self.recovered += 1
        elif outcome is Outcome.TORN:
            self.torn += 1
        else:
            self.missed += 1


@dataclass
class CampaignReport:
    """Everything a campaign learned, plus the pass/fail verdict."""

    spec: CampaignSpec
    #: The supervised outcome of the per-engine units. A partial one
    #: means some engines never reported.
    supervision: CampaignOutcome
    records: List[TrialRecord] = field(default_factory=list)
    #: (engine, kind) -> aggregated cell.
    matrix: Dict[Tuple[str, FaultKind], MatrixCell] = field(
        default_factory=dict
    )

    @property
    def missed(self) -> List[TrialRecord]:
        return [r for r in self.records if r.outcome is Outcome.MISSED]

    @property
    def disallowed_benign(self) -> List[TrialRecord]:
        """BENIGN results for kinds where silence is never acceptable."""
        return [
            r for r in self.records
            if r.outcome is Outcome.BENIGN
            and r.plan.kind not in BENIGN_OK_KINDS
        ]

    @property
    def disallowed_false_accepts(self) -> List[TrialRecord]:
        """FALSE_ACCEPT results outside the quantified kinds."""
        return [
            r for r in self.records
            if r.outcome is Outcome.FALSE_ACCEPT
            and r.plan.kind not in QUANTIFIED_KINDS
        ]

    def false_accept_rate(self, engine: Optional[str] = None) -> float:
        """Measured rate over quantified-kind trials (optionally per engine)."""
        trials = accepts = 0
        for (eng, kind), cell in self.matrix.items():
            if kind not in QUANTIFIED_KINDS:
                continue
            if engine is not None and eng != engine:
                continue
            trials += cell.trials
            accepts += cell.false_accepts
        return accepts / trials if trials else 0.0

    @property
    def violated_cells(self) -> List[Tuple[str, FaultKind]]:
        """Quantified cells whose measured rate exceeds the bound."""
        if self.spec.fa_bound is None:
            return []
        return [
            key
            for key, cell in self.matrix.items()
            if key[1] in QUANTIFIED_KINDS
            and cell.false_accept_rate > self.spec.fa_bound
        ]

    @property
    def ok(self) -> bool:
        """No disallowed outcome among the engines that reported.

        It covers only the units that completed; ``supervision.partial``
        says whether any engine is missing.
        """
        return not (
            self.missed
            or self.disallowed_benign
            or self.disallowed_false_accepts
            or self.violated_cells
        )


def _replay_op(mem: SecureMemory, shadow: Dict[int, bytes], op: Op) -> None:
    if op.write:
        mem.write(op.address, op.data)
        shadow[op.address] = op.data
    else:
        mem.read(op.address, SECTOR_BYTES)


def _run_trial(
    engine_name: str,
    mem: SecureMemory,
    shadow: Dict[int, bytes],
    plan: InjectionPlan,
    spec: CampaignSpec,
) -> TrialRecord:
    fresh: Optional[bytes] = None
    honest = shadow.get(plan.address)
    if plan.kind in (FaultKind.REPLAY, FaultKind.DROPPED_WRITE):
        fresh = _fresh_payload(spec, plan)
        honest = fresh
    apply_fault(mem, plan, fresh_data=fresh)
    try:
        got = mem.read(plan.address, SECTOR_BYTES)
    except (IntegrityError, ReplayError) as exc:
        expected = EXPECTED_EXCEPTION[plan.kind]
        if isinstance(exc, expected) and exc.address == plan.address:
            outcome = Outcome.DETECTED
            detail = str(exc)
        else:
            outcome = Outcome.MISSED
            where = hex(exc.address) if exc.address is not None else "?"
            detail = (
                f"wrong detection: {type(exc).__name__} at {where} "
                f"(expected {expected.__name__} at {plan.address:#x}): {exc}"
            )
        exception = type(exc).__name__
    else:
        exception = None
        if honest is not None and got == honest:
            outcome = Outcome.BENIGN
            detail = "correct data returned despite tampering"
        else:
            outcome = Outcome.FALSE_ACCEPT
            detail = "tampered data accepted silently"
    return TrialRecord(
        engine=engine_name, plan=plan, outcome=outcome,
        exception=exception, detail=detail,
    )


def _run_engine(
    engine_name: str,
    spec: CampaignSpec,
    ops: Sequence[Op],
    plans: Sequence[InjectionPlan],
) -> List[TrialRecord]:
    mem = build_engine(engine_name, spec)
    shadow: Dict[int, bytes] = {}
    triggers = sorted({p.trigger_index for p in plans})
    checkpoints: Dict[int, Tuple[SecureMemory, Dict[int, bytes]]] = {}
    op_i = 0
    for trigger in triggers:
        while op_i < trigger:
            _replay_op(mem, shadow, ops[op_i])
            op_i += 1
        checkpoints[trigger] = (deepcopy(mem), dict(shadow))
    records = []
    for plan in plans:
        base_mem, base_shadow = checkpoints[plan.trigger_index]
        records.append(
            _run_trial(engine_name, deepcopy(base_mem), dict(base_shadow),
                       plan, spec)
        )
    return records


def _plan_payload(plan: InjectionPlan) -> Dict[str, object]:
    return {
        "kind": plan.kind.value,
        "address": plan.address,
        "trigger_index": plan.trigger_index,
        "bit": plan.bit,
        "src_address": plan.src_address,
        "tree_level": plan.tree_level,
        "stream": plan.stream,
    }


def _plan_from_payload(payload: Dict[str, object]) -> InjectionPlan:
    return InjectionPlan(
        kind=FaultKind(payload["kind"]),
        address=payload["address"],
        trigger_index=payload["trigger_index"],
        bit=payload["bit"],
        src_address=payload["src_address"],
        tree_level=payload["tree_level"],
        stream=payload["stream"],
    )


def _record_payload(record: TrialRecord) -> Dict[str, object]:
    return {
        "engine": record.engine,
        "plan": _plan_payload(record.plan),
        "outcome": record.outcome.value,
        "exception": record.exception,
        "detail": record.detail,
    }


def _record_from_payload(payload: Dict[str, object]) -> TrialRecord:
    return TrialRecord(
        engine=payload["engine"],
        plan=_plan_from_payload(payload["plan"]),
        outcome=Outcome(payload["outcome"]),
        exception=payload["exception"],
        detail=payload["detail"],
    )


def engine_campaign(
    spec: CampaignSpec, ops: Sequence[Op], plans: Sequence[InjectionPlan]
):
    """Decompose one fault campaign into per-engine work units.

    The engine is the natural unit: state forking amortizes the op
    prefix within one engine, while engines share nothing. Identity
    covers the campaign spec plus digests of the concrete ops and
    plans, so a journaled engine result is only reused against the
    exact same attack.
    """
    from repro.common.digest import content_digest
    from repro.resilience import Campaign, WorkUnit

    ops_id = content_digest("fault-ops", *(repr(op) for op in ops))
    plans_id = content_digest("fault-plans", *(repr(p) for p in plans))

    def runner_for(engine_name: str):
        def run() -> List[Dict[str, object]]:
            return [
                _record_payload(r)
                for r in _run_engine(engine_name, spec, ops, plans)
            ]

        return run

    units = [
        WorkUnit(
            kind="fault-engine",
            params={
                "campaign": spec.name,
                "seed": spec.seed,
                "engine": engine_name,
                "ops": ops_id,
                "plans": plans_id,
            },
            runner=runner_for(engine_name),
            label=f"{spec.name}:{engine_name}",
        )
        for engine_name in spec.engines
    ]
    return Campaign(name=f"faults:{spec.name}", units=units)


def run_campaign(
    spec: CampaignSpec,
    ops: Optional[Sequence[Op]] = None,
    supervisor=None,
) -> CampaignReport:
    """Mount *spec* (optionally over caller-supplied victim ops).

    Each engine runs once as one work unit under *supervisor*: budgets
    degrade gracefully (missing engines are reported, not silently
    absent), a named run is journaled and resumable, and the outcome
    rides along as ``report.supervision`` (*supervisor* defaults to a
    plain :class:`~repro.resilience.Supervisor`, which journals
    nothing). An engine whose unit raised is missing from ``records``,
    so ``report.ok`` holds only together with
    ``report.supervision.ok``.
    """
    from repro.resilience import Supervisor

    if ops is None:
        ops = _default_ops(spec)
    plans = build_plans(spec, ops)
    campaign = engine_campaign(spec, ops, plans)
    if supervisor is None:
        supervisor = Supervisor()
    outcome = supervisor.run(campaign)
    report = CampaignReport(spec=spec, supervision=outcome)
    for unit in campaign.units:
        for payload in outcome.results.get(unit.unit_id) or ():
            report.records.append(_record_from_payload(payload))
    for record in report.records:
        key = (record.engine, record.plan.kind)
        cell = report.matrix.get(key)
        if cell is None:
            cell = report.matrix[key] = MatrixCell()
        cell.absorb(record.outcome)
    return report
