"""Resilient campaign execution: journaled resume, retries, budgets, chaos.

The subsystem decomposes any multi-unit run — parameter sweeps, paper
experiments, fault campaigns, conformance fuzzing — into
content-addressed :class:`WorkUnit` s and executes them serially under
a :class:`Supervisor` that retries transient failures, journals every
outcome durably, honors resource budgets by degrading gracefully, and
can sabotage itself on demand (:mod:`repro.resilience.chaos`) to prove
all of the above works.
"""

from repro.resilience.budget import (
    REASON_RSS,
    REASON_WALL_CLOCK,
    BudgetGuard,
    ResourceBudget,
    current_rss_mb,
)
from repro.resilience.chaos import ChaosConfig, ChaosKill, ChaosMonkey
from repro.resilience.journal import JOURNAL_SCHEMA, RunJournal, journal_path
from repro.resilience.policy import (
    RETRYABLE,
    FailureClass,
    RetryPolicy,
    classify_failure,
)
from repro.resilience.report import missing_cell_lines, render_outcome
from repro.resilience.telemetry import (
    UnitTelemetry,
    render_campaign_telemetry,
    rollup,
)
from repro.resilience.supervisor import (
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    CampaignOutcome,
    Supervisor,
    UnitOutcome,
)
from repro.resilience.units import (
    Campaign,
    WorkUnit,
    campaign_fingerprint,
    canonical_params,
    json_roundtrip,
)

__all__ = [
    "BudgetGuard",
    "Campaign",
    "CampaignOutcome",
    "ChaosConfig",
    "ChaosKill",
    "ChaosMonkey",
    "FailureClass",
    "JOURNAL_SCHEMA",
    "REASON_RSS",
    "REASON_WALL_CLOCK",
    "RETRYABLE",
    "ResourceBudget",
    "RetryPolicy",
    "RunJournal",
    "STATUS_CANCELLED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "Supervisor",
    "UnitOutcome",
    "UnitTelemetry",
    "WorkUnit",
    "render_campaign_telemetry",
    "rollup",
    "campaign_fingerprint",
    "canonical_params",
    "classify_failure",
    "current_rss_mb",
    "journal_path",
    "json_roundtrip",
    "missing_cell_lines",
    "render_outcome",
]
