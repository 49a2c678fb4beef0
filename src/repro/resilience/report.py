"""Human-readable summaries of supervised campaign outcomes.

Two renderers:

* :func:`render_outcome` — the supervisor's own summary (status, unit
  counts, failures, degradation reason). Deliberately free of
  timings and run ids in its body lines so the text is stable across
  a fresh run and a kill/resume of the same campaign.
* :func:`missing_cell_lines` — the explicit "this cell is absent and
  here is why" lines a degraded report embeds, one per unfinished
  unit, using the stable degradation reasons from
  :mod:`repro.resilience.budget`.
"""

from __future__ import annotations

from typing import List

from repro.resilience.supervisor import (
    STATUS_CANCELLED,
    STATUS_FAILED,
    CampaignOutcome,
)


def missing_cell_lines(outcome: CampaignOutcome) -> List[str]:
    """One ``MISSING`` line per unit that produced no result."""
    lines: List[str] = []
    for unit in outcome.outcomes:
        if unit.completed:
            continue
        detail = unit.error or "no result"
        if unit.status == STATUS_FAILED and unit.failure_class:
            detail = f"{unit.failure_class}: {detail}"
        lines.append(f"MISSING {unit.label}: {unit.status} ({detail})")
    return lines


def render_outcome(outcome: CampaignOutcome) -> str:
    """Summary block for one supervised campaign."""
    status = "PARTIAL" if outcome.partial else "COMPLETE"
    lines = [
        f"== campaign {outcome.campaign}: {status} ==",
        (
            f"units: {len(outcome.outcomes)} total, "
            f"{outcome.count('ok')} ok, "
            f"{outcome.count('skipped')} resumed, "
            f"{outcome.count(STATUS_FAILED)} failed, "
            f"{outcome.count(STATUS_CANCELLED)} cancelled"
        ),
    ]
    if outcome.degraded is not None:
        lines.append(f"degraded: {outcome.degraded}")
    lines.extend(missing_cell_lines(outcome))
    return "\n".join(lines)
