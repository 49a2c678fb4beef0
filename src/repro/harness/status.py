"""The ``status`` harness subcommand: live campaign monitoring.

Reads a run journal (see :mod:`repro.resilience.journal`) and renders
where the campaign stands: units done / failed / pending, throughput
and ETA computed from the per-record timestamps, budget consumption
against the budget recorded in the run header, and — once the run has
ended — the final verdict and its resource-telemetry roll-up.

The monitor is **strictly read-only**: it never opens the journal for
append (that path repairs torn tails by truncating the file) and never
takes locks, so watching a live run cannot perturb it. A torn trailing
line — the supervisor may be mid-append right now — is tolerated
exactly like the resume path tolerates it.

``--follow`` polls until the journal gains an ``end`` record, then
exits with the run's verdict: 0 for ``complete``, 3 (partial) for
``partial``. A one-shot invocation of a still-running campaign exits 0.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.common.errors import (
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    JournalError,
)
from repro.resilience import RunJournal, render_campaign_telemetry
from repro.resilience.journal import JOURNAL_NAME

log = logging.getLogger("repro.harness.status")


def resolve_journal(spec: str) -> Path:
    """Resolve a CLI journal spec to the ``journal.jsonl`` path.

    Accepts the journal file itself, a run directory containing one,
    or a run-dir root holding exactly one run (the common case right
    after ``sweep`` printed its run id).
    """
    path = Path(spec)
    if path.is_file():
        return path
    if path.is_dir():
        direct = path / JOURNAL_NAME
        if direct.is_file():
            return direct
        journals = sorted(path.glob(f"*/{JOURNAL_NAME}"))
        if len(journals) == 1:
            return journals[0]
        if len(journals) > 1:
            runs = ", ".join(sorted(p.parent.name for p in journals))
            raise JournalError(
                f"{path} holds {len(journals)} runs ({runs}); "
                "name one run directory"
            )
    raise JournalError(f"no run journal at {path}")


@dataclass
class StatusSnapshot:
    """One read of a run journal, reduced to progress numbers."""

    path: str
    run_id: str
    campaign: str
    units_total: int
    ok: int = 0
    failed: int = 0
    #: Units with no ``ok`` record yet (failed units count: a resume
    #: will re-run them).
    pending: int = 0
    #: Journal unit records (a unit rerun on resume counts twice).
    unit_records: int = 0
    started_ts: Optional[float] = None
    last_ts: Optional[float] = None
    #: Wall seconds covered by the snapshot (end/now - start).
    elapsed_s: Optional[float] = None
    #: Finished unit records per second of elapsed time.
    units_per_s: Optional[float] = None
    eta_s: Optional[float] = None
    #: The run header's ``budget`` block, if the run recorded one.
    budget: Dict[str, object] = field(default_factory=dict)
    #: ``None`` while running; ``complete`` / ``partial`` once ended.
    end_status: Optional[str] = None
    end_reason: Optional[str] = None
    #: The end record's resource-telemetry roll-up, if present.
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def running(self) -> bool:
        return self.end_status is None

    @property
    def exit_code(self) -> int:
        return EXIT_PARTIAL if self.end_status == "partial" else EXIT_OK

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "path": self.path,
            "run_id": self.run_id,
            "campaign": self.campaign,
            "units_total": self.units_total,
            "ok": self.ok,
            "failed": self.failed,
            "pending": self.pending,
            "unit_records": self.unit_records,
            "running": self.running,
        }
        if self.elapsed_s is not None:
            payload["elapsed_s"] = round(self.elapsed_s, 3)
        if self.units_per_s is not None:
            payload["units_per_s"] = round(self.units_per_s, 6)
        if self.eta_s is not None:
            payload["eta_s"] = round(self.eta_s, 3)
        if self.budget:
            payload["budget"] = self.budget
        if self.end_status is not None:
            payload["end_status"] = self.end_status
        if self.end_reason is not None:
            payload["end_reason"] = self.end_reason
        if self.telemetry:
            payload["telemetry"] = self.telemetry
        return payload


def read_snapshot(
    journal_file: Path, now: Callable[[], float] = time.time
) -> StatusSnapshot:
    """Parse *journal_file* (read-only) into a :class:`StatusSnapshot`."""
    journal = RunJournal(journal_file, journal_file.parent.name)
    records = journal.records()
    header = journal.header()
    snapshot = StatusSnapshot(
        path=str(journal_file),
        run_id=str(header.get("run_id", journal.run_id)),
        campaign=str(header.get("campaign", "?")),
        units_total=int(header.get("units", 0)),  # type: ignore[arg-type]
    )
    budget = header.get("budget")
    if isinstance(budget, dict):
        snapshot.budget = budget
    header_ts = header.get("ts")
    if isinstance(header_ts, (int, float)):
        snapshot.started_ts = float(header_ts)

    latest: Dict[str, str] = {}
    for record in records:
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            snapshot.last_ts = float(ts)
        kind = record.get("type")
        if kind == "unit":
            snapshot.unit_records += 1
            unit_id = record.get("unit_id")
            status = record.get("status")
            if isinstance(unit_id, str) and isinstance(status, str):
                # ok is sticky: a resume never demotes a completed unit.
                if latest.get(unit_id) != "ok":
                    latest[unit_id] = status
        elif kind == "end":
            snapshot.end_status = str(record.get("status"))
            reason = record.get("reason")
            snapshot.end_reason = str(reason) if reason is not None else None
            telemetry = record.get("telemetry")
            if isinstance(telemetry, dict):
                snapshot.telemetry = telemetry

    snapshot.ok = sum(1 for s in latest.values() if s == "ok")
    snapshot.failed = sum(1 for s in latest.values() if s == "failed")
    snapshot.pending = max(0, snapshot.units_total - snapshot.ok)

    if snapshot.started_ts is not None:
        reference = (
            snapshot.last_ts
            if not snapshot.running and snapshot.last_ts is not None
            else max(now(), snapshot.started_ts)
        )
        snapshot.elapsed_s = max(0.0, reference - snapshot.started_ts)
        if snapshot.unit_records and snapshot.elapsed_s > 0:
            snapshot.units_per_s = snapshot.unit_records / snapshot.elapsed_s
            if snapshot.running and snapshot.pending:
                snapshot.eta_s = snapshot.pending / snapshot.units_per_s
    return snapshot


def _fmt_duration(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def render_status(snapshot: StatusSnapshot, width: int = 30) -> str:
    """Human-readable status block for one snapshot."""
    lines = [
        f"== status: run {snapshot.run_id} "
        f"(campaign {snapshot.campaign}) =="
    ]
    total = snapshot.units_total
    done = snapshot.ok
    lines.append(
        f"units:    {total} total  {done} ok  {snapshot.failed} failed  "
        f"{snapshot.pending} pending"
    )
    if total:
        filled = int(round(width * done / total))
        bar = "#" * filled + "." * (width - filled)
        lines.append(f"progress: [{bar}] {100.0 * done / total:.1f}%")
    if snapshot.elapsed_s is not None:
        parts = [f"elapsed {_fmt_duration(snapshot.elapsed_s)}"]
        if snapshot.units_per_s is not None:
            parts.append(f"{snapshot.units_per_s * 60:.1f} units/min")
        if snapshot.eta_s is not None:
            parts.append(f"eta ~{_fmt_duration(snapshot.eta_s)}")
        lines.append("timing:   " + "  ".join(parts))
    wall_budget = snapshot.budget.get("wall_clock_s")
    if isinstance(wall_budget, (int, float)) and snapshot.elapsed_s is not None:
        used = 100.0 * snapshot.elapsed_s / wall_budget if wall_budget else 0.0
        lines.append(
            f"budget:   wall {_fmt_duration(snapshot.elapsed_s)} of "
            f"{_fmt_duration(float(wall_budget))} ({used:.1f}%)"
        )
    if snapshot.running:
        lines.append("state:    running")
    else:
        reason = f" ({snapshot.end_reason})" if snapshot.end_reason else ""
        lines.append(f"state:    {snapshot.end_status}{reason}")
    if snapshot.telemetry:
        lines.append(render_campaign_telemetry(snapshot.telemetry))
    return "\n".join(lines)


def follow(
    journal_file: Path,
    poll_s: float,
    stream,
    now: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    max_polls: Optional[int] = None,
) -> int:
    """Poll *journal_file* until its run ends; returns the exit code.

    Each poll prints a one-line progress update; the final snapshot is
    rendered in full. ``max_polls`` bounds the loop for tests (and for
    watching a run that will never end); hitting it exits 0 if the run
    is still marked running.
    """
    polls = 0
    while True:
        snapshot = read_snapshot(journal_file, now=now)
        if not snapshot.running:
            print(render_status(snapshot), file=stream)
            return snapshot.exit_code
        eta = (
            f"  eta ~{_fmt_duration(snapshot.eta_s)}"
            if snapshot.eta_s is not None
            else ""
        )
        print(
            f"[{snapshot.run_id}] {snapshot.ok}/{snapshot.units_total} ok  "
            f"{snapshot.failed} failed{eta}",
            file=stream,
        )
        polls += 1
        if max_polls is not None and polls >= max_polls:
            log.info("giving up after %d polls; run still active", polls)
            return EXIT_OK
        sleep(poll_s)


def status_main(
    argv: List[str],
    now: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Parse and run the ``status`` subcommand."""
    from repro.harness.logsetup import add_logging_flags, setup_logging

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness status",
        description="Monitor a supervised run from its journal "
                    "(read-only; safe against a live campaign).",
    )
    parser.add_argument(
        "journal",
        help="run journal: the journal.jsonl file, its run directory, "
             "or a --run-dir root holding one run",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="poll until the run ends; exit with its verdict "
             "(0 complete, 3 partial)",
    )
    parser.add_argument(
        "--poll", type=float, default=1.0, metavar="SECONDS",
        help="--follow poll interval (default 1.0)",
    )
    parser.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="stop following after N polls even if the run is still "
             "active (default: never)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the snapshot as JSON instead of the text block",
    )
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    setup_logging(args)
    if args.poll <= 0:
        parser.error("--poll must be > 0")

    try:
        journal_file = resolve_journal(args.journal)
        if args.follow and not args.as_json:
            return follow(
                journal_file,
                args.poll,
                sys.stdout,
                now=now,
                sleep=sleep,
                max_polls=args.max_polls,
            )
        snapshot = read_snapshot(journal_file, now=now)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.as_json:
        print(json.dumps(snapshot.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_status(snapshot))
    return snapshot.exit_code
