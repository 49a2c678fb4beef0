"""Resilient campaign execution: journaled resume and resource budgets.

The subsystem decomposes any multi-unit run — parameter sweeps, paper
experiments, fault campaigns, conformance fuzzing — into
content-addressed :class:`WorkUnit` s and executes them serially under
a :class:`Supervisor` that runs each unit once, journals every outcome
durably (a failed unit reruns only under ``--resume``), and honors
resource budgets by degrading gracefully.
"""

from repro.resilience.budget import (
    REASON_RSS,
    REASON_WALL_CLOCK,
    BudgetGuard,
    ResourceBudget,
    current_rss_mb,
)
from repro.resilience.journal import JOURNAL_SCHEMA, RunJournal, journal_path
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
    "JOURNAL_SCHEMA",
    "REASON_RSS",
    "REASON_WALL_CLOCK",
    "ResourceBudget",
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
    "current_rss_mb",
    "journal_path",
    "json_roundtrip",
    "missing_cell_lines",
    "render_outcome",
]
