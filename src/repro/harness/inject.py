"""The ``inject`` harness subcommand: adversarial fault campaigns.

Mounts a named fault-injection campaign (see
:mod:`repro.faults.campaign`) against the secure-memory model, using a
benchmark trace as the victim workload so the attacked state has the
same spatial structure and value locality the performance experiments
exercise. The subcommand renders the detection matrix and exits
non-zero when any fault is missed, silently accepted outside the
quantified kinds, or accepted above the campaign's rate bound.

Campaigns whose workload is not ``"synthetic"`` (the value-stress
regime) bring their own purpose-built op stream; the benchmark then
only names the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.common.errors import FaultInjectionError
from repro.faults.campaign import CampaignReport, campaign_spec, run_campaign
from repro.faults.crashpoints import (
    CrashReport,
    crash_campaign_spec,
    crash_ops_from_accesses,
    run_crash_campaign,
)
from repro.faults.workload import Op, ops_from_trace
from repro.gpu.config import VOLTA, GpuConfig
from repro.harness.runner import DEFAULT_TRACE_LENGTH, ExperimentContext
from repro.workloads.trace import Trace


@dataclass
class InjectResult:
    """One campaign run plus the workload it attacked."""

    benchmark: str
    campaign: str
    report: CampaignReport
    victim_ops: int

    @property
    def ok(self) -> bool:
        return self.report.ok


@dataclass
class InjectCrashResult:
    """One crash-torture sweep plus the workload it killed."""

    benchmark: str
    campaign: str
    report: CrashReport
    victim_ops: int

    @property
    def ok(self) -> bool:
        return self.report.ok


def _plan_viable(ops: List[Op]) -> bool:
    """Whether every plan kind can find targets in this op stream.

    Mirrors :func:`repro.faults.campaign.build_plans`: the earliest
    trigger candidate sits at two-thirds of the stream, and splicing
    needs two distinct written addresses before it.
    """
    earliest = max(2, (len(ops) * 2) // 3)
    written = {op.address for op in ops[:earliest] if op.write}
    return len(written) >= 2


def _victim_ops(trace: Trace, size_bytes: int, warmup_ops: int) -> List[Op]:
    """Distill a plan-viable op stream from *trace*.

    Read-heavy traces may take many accesses to write two distinct
    sectors; the limit doubles until the plans are viable or the trace
    is exhausted.
    """
    limit = warmup_ops
    while True:
        ops = ops_from_trace(trace, size_bytes, limit=limit)
        if _plan_viable(ops):
            return ops
        if len(ops) < limit:
            raise FaultInjectionError(
                f"trace {trace.name!r} never writes two distinct sectors; "
                "cannot target splicing faults"
            )
        limit *= 2


def run_inject(
    benchmark: str,
    campaign: str = "quick",
    *,
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 2023,
    config: GpuConfig = VOLTA,
    engines: Optional[Sequence[str]] = None,
    supervisor=None,
) -> InjectResult:
    """Run one campaign against a benchmark-derived victim workload.

    ``engines`` overrides the campaign's engine roster (e.g. the CI
    smoke runs two engines instead of three). ``supervisor`` runs the
    per-engine units (budgets, journal); see
    :func:`repro.faults.campaign.run_campaign`. Raises
    :class:`~repro.common.errors.FaultInjectionError` for unknown
    campaign names or unviable plans.
    """
    spec = campaign_spec(campaign)
    if engines is not None:
        spec = replace(spec, engines=tuple(engines))

    ops: Optional[List[Op]] = None
    if spec.workload == "synthetic":
        ctx = ExperimentContext(
            config=config,
            trace_length=length,
            seed=seed,
            benchmarks=[benchmark],
        )
        trace = ctx.trace(benchmark)
        ops = _victim_ops(trace, spec.size_bytes, spec.warmup_ops)

    report = run_campaign(spec, ops=ops, supervisor=supervisor)
    victim = len(ops) if ops is not None else spec.warmup_ops
    return InjectResult(
        benchmark=benchmark,
        campaign=campaign,
        report=report,
        victim_ops=victim,
    )


def run_inject_crash(
    benchmark: str,
    campaign: str = "crash",
    *,
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 2023,
    config: GpuConfig = VOLTA,
    supervisor=None,
) -> InjectCrashResult:
    """Run one crash-point torture sweep on a benchmark-shaped workload.

    The benchmark trace supplies the access *shape* (read/write mix and
    hot-sector locality, folded into the campaign's tiny footprint);
    :func:`~repro.faults.crashpoints.crash_ops_from_accesses` appends a
    deterministic tail so every persist-barrier op class fires even for
    read-heavy traces. ``supervisor`` runs the per-op units (budgets,
    journal); see
    :func:`repro.faults.crashpoints.run_crash_campaign`.
    """
    spec = crash_campaign_spec(campaign)
    ctx = ExperimentContext(
        config=config,
        trace_length=length,
        seed=seed,
        benchmarks=[benchmark],
    )
    trace = ctx.trace(benchmark)
    victim = ops_from_trace(trace, spec.size_bytes, limit=spec.num_ops)
    accesses = [(op.address, op.write) for op in victim]
    ops = crash_ops_from_accesses(spec, accesses)
    report = run_crash_campaign(spec, ops=ops, supervisor=supervisor)
    return InjectCrashResult(
        benchmark=benchmark,
        campaign=campaign,
        report=report,
        victim_ops=len(ops),
    )
