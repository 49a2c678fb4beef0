"""Append-only JSONL run journals.

One named run owns one directory — ``<run_dir>/<run_id>/`` — with
a single ``journal.jsonl`` inside. Records, one JSON object per line:

* ``{"type": "run", ...}`` — written once at creation: schema version,
  run id, campaign name and fingerprint, unit count;
* ``{"type": "unit", ...}`` — one per *finished* unit attempt series:
  unit id, kind, label, status (``ok`` / ``failed``), attempts,
  failure class and error (for failures), elapsed seconds, and — for
  ``ok`` — the JSON result payload itself;
* ``{"type": "end", ...}`` — the run's final status (``complete`` /
  ``partial``) and degradation reason, appended every time the
  supervisor finishes (a resumed run appends its own).

Durability model: every append is flushed *and fsynced* before the
supervisor moves on, so after ``kill -9`` the journal holds every unit
that reported completion. A kill mid-append can at worst leave one
torn final line; :meth:`RunJournal.records` tolerates exactly that
(the unit is simply re-run on resume) while corruption anywhere else
raises :class:`~repro.common.errors.JournalError` — a mangled journal
must never silently drop completed work.

Resume validates the campaign fingerprint recorded at creation: a
journal can only continue the run that produced it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.common.errors import JournalError
from repro.resilience.units import Campaign, WorkUnit

#: Bump when the journal record layout changes shape.
JOURNAL_SCHEMA = 1

JOURNAL_NAME = "journal.jsonl"


def journal_path(run_dir: "str | os.PathLike[str]", run_id: str) -> Path:
    return Path(run_dir) / run_id / JOURNAL_NAME


class RunJournal:
    """One run's append-only outcome log."""

    def __init__(
        self,
        path: Path,
        run_id: str,
        time_source: Callable[[], float] = time.time,
    ) -> None:
        self.path = path
        self.run_id = run_id
        #: Wall-clock source for record timestamps (injectable so tests
        #: can journal deterministically).
        self.time_source = time_source

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(
        cls,
        run_dir: "str | os.PathLike[str]",
        run_id: str,
        campaign: Campaign,
        meta: Optional[Dict[str, object]] = None,
    ) -> "RunJournal":
        """Create the journal, or resume it if one already exists.

        Whether a run may start fresh or resume is the
        :class:`~repro.resilience.supervisor.Supervisor`'s decision;
        this only refuses a journal recorded for other work.

        ``meta`` keys (e.g. the run's resource budget, for the live
        ``status`` monitor) are folded into the run header on creation;
        they never override the reserved header fields and are ignored
        when resuming an existing journal.
        """
        path = journal_path(run_dir, run_id)
        journal = cls(path, run_id)
        if path.exists():
            journal._truncate_torn_tail()
            header = journal.header()
            if header.get("fingerprint") != campaign.fingerprint:
                raise JournalError(
                    f"run {run_id!r} was recorded for campaign "
                    f"{header.get('campaign')!r} (fingerprint "
                    f"{header.get('fingerprint')!r}); it cannot resume "
                    f"{campaign.name!r} ({campaign.fingerprint!r}) — "
                    "the parameters differ"
                )
            return journal
        path.parent.mkdir(parents=True, exist_ok=True)
        header: Dict[str, object] = {
            "type": "run",
            "schema": JOURNAL_SCHEMA,
            "run_id": run_id,
            "campaign": campaign.name,
            "fingerprint": campaign.fingerprint,
            "units": len(campaign.units),
        }
        if meta:
            for key, value in meta.items():
                header.setdefault(key, value)
        journal._append(header)
        return journal

    def _truncate_torn_tail(self) -> None:
        """Drop a torn trailing line left behind by a kill mid-append.

        ``_append`` writes each record as one ``line + "\\n"`` (JSON
        escapes embedded newlines), so a torn tail is always a
        newline-free suffix. Truncating back to the last newline keeps
        every complete record and lands the next append on a fresh
        line — without this, resuming after a mid-append kill would
        concatenate the next record onto the torn fragment and turn
        tolerated trailing damage into mid-file corruption.
        """
        try:
            with self.path.open("r+b") as handle:
                data = handle.read()
                if not data or data.endswith(b"\n"):
                    return
                handle.truncate(data.rfind(b"\n") + 1)
        except OSError as exc:
            raise JournalError(
                f"cannot repair journal {self.path}: {exc}"
            ) from None

    # -- reading -------------------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """Every parseable record, tolerating one torn trailing line."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise JournalError(
                f"cannot read journal {self.path}: {exc}"
            ) from None
        records: List[Dict[str, object]] = []
        lines = text.split("\n")
        for index, line in enumerate(lines):
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                is_last = index >= len(lines) - 2 and not any(
                    lines[index + 1:]
                )
                if is_last:
                    # A kill mid-append tore the final line; the unit
                    # it described never counted as finished.
                    break
                raise JournalError(
                    f"journal {self.path} line {index + 1} is corrupt "
                    "(not trailing truncation)"
                ) from None
            if not isinstance(record, dict):
                raise JournalError(
                    f"journal {self.path} line {index + 1} is not an object"
                )
            records.append(record)
        return records

    def header(self) -> Dict[str, object]:
        """The run-start record (first line)."""
        records = self.records()
        if not records or records[0].get("type") != "run":
            raise JournalError(
                f"journal {self.path} has no run header"
            )
        if records[0].get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"journal {self.path} has schema "
                f"{records[0].get('schema')!r}; this build expects "
                f"{JOURNAL_SCHEMA}"
            )
        return records[0]

    def completed(self) -> Dict[str, Dict[str, object]]:
        """unit_id -> latest ``ok`` unit record (resume's skip set)."""
        done: Dict[str, Dict[str, object]] = {}
        for record in self.records():
            if record.get("type") != "unit":
                continue
            unit_id = record.get("unit_id")
            if not isinstance(unit_id, str):
                raise JournalError(
                    f"journal {self.path} has a unit record without an id"
                )
            if record.get("status") == "ok":
                done[unit_id] = record
        return done

    def unit_record_count(self, unit_id: Optional[str] = None) -> int:
        """How many unit records exist (optionally for one unit)."""
        return sum(
            1
            for record in self.records()
            if record.get("type") == "unit"
            and (unit_id is None or record.get("unit_id") == unit_id)
        )

    # -- writing -------------------------------------------------------------

    def record_unit(
        self,
        unit: WorkUnit,
        status: str,
        attempts: int,
        elapsed_s: float,
        failure_class: Optional[str] = None,
        error: Optional[str] = None,
        result: Optional[object] = None,
        telemetry: Optional[Dict[str, object]] = None,
    ) -> None:
        record: Dict[str, object] = {
            "type": "unit",
            "unit_id": unit.unit_id,
            "kind": unit.kind,
            "label": unit.label,
            "status": status,
            "attempts": attempts,
            "elapsed_s": round(elapsed_s, 6),
        }
        if failure_class is not None:
            record["failure_class"] = failure_class
        if error is not None:
            record["error"] = error
        if telemetry is not None:
            record["telemetry"] = telemetry
        if status == "ok":
            record["result"] = result
        self._append(record)

    def record_end(
        self,
        status: str,
        reason: Optional[str] = None,
        telemetry: Optional[Dict[str, object]] = None,
    ) -> None:
        record: Dict[str, object] = {"type": "end", "status": status}
        if reason is not None:
            record["reason"] = reason
        if telemetry is not None:
            record["telemetry"] = telemetry
        self._append(record)

    def _append(self, record: Dict[str, object]) -> None:
        # Every record carries a wall-clock timestamp so the live
        # `status` monitor can compute throughput and ETA from the
        # journal alone.
        record.setdefault("ts", round(self.time_source(), 3))
        # No sort_keys: result payload key order is part of the report
        # (format_table renders columns in insertion order).
        line = json.dumps(record, separators=(",", ":"))
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
