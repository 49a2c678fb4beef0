"""End-to-end crash recovery: kill -9 a sweep, resume its journal.

The contract under test is the PR's acceptance scenario: a supervised
sweep killed partway through resumes from its journal, re-runs only
unfinished cells, and prints a report byte-identical to an
uninterrupted run of the same campaign.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")
SWEEP_ARGS = [
    "sweep", "partitions", "bfs",
    "--length", "500",
]


def run_cli(args, run_dir, **popen_kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.harness", *SWEEP_ARGS,
         "--run-dir", str(run_dir), *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen_kwargs,
    )


def journal_unit_records(path):
    """Parseable unit records in a journal file (torn tail tolerated)."""
    if not path.exists():
        return []
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("type") == "unit":
            records.append(record)
    return records


@pytest.mark.slow
class TestKillAndResume:
    def test_sigkill_mid_sweep_then_resume_is_byte_identical(self, tmp_path):
        killed_dir = tmp_path / "killed"
        fresh_dir = tmp_path / "fresh"
        journal = killed_dir / "killme" / "journal.jsonl"

        # Start the sweep, wait for the journal to show progress, and
        # kill -9 the process mid-campaign.
        child = run_cli(["--run-id", "killme"], killed_dir)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if journal_unit_records(journal) or child.poll() is not None:
                break
            time.sleep(0.01)
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
        child.communicate()
        records_after_kill = journal_unit_records(journal)
        assert journal.exists(), "journal never materialized"

        # Resume the killed run.
        resumed = run_cli(["--resume", "killme"], killed_dir)
        resumed_out, resumed_err = resumed.communicate(timeout=600)
        assert resumed.returncode == 0, resumed_err

        # An uninterrupted run of the same campaign, for comparison.
        fresh = run_cli(["--run-id", "control"], fresh_dir)
        fresh_out, fresh_err = fresh.communicate(timeout=600)
        assert fresh.returncode == 0, fresh_err

        # The merged report is byte-identical to the fresh one.
        assert resumed_out == fresh_out

        # Completed cells were not re-executed: across kill + resume
        # each of the 3 cells produced exactly one ok record.
        final_records = journal_unit_records(journal)
        assert len(final_records) == 3
        assert {r["status"] for r in final_records} == {"ok"}
        by_unit = {}
        for record in final_records:
            by_unit.setdefault(record["unit_id"], 0)
            by_unit[record["unit_id"]] += 1
        assert all(count == 1 for count in by_unit.values())

        # The resumed run reported the journaled cells as resumed
        # (when the kill actually landed mid-campaign).
        if len(records_after_kill) < 3:
            resumed_count = len(records_after_kill)
            assert f"{resumed_count} resumed" in resumed_err

    def test_resume_unknown_run_id_is_usage_error(self, tmp_path):
        child = run_cli(["--resume", "ghost"], tmp_path / "empty")
        out, err = child.communicate(timeout=600)
        assert child.returncode == 2
        assert "nothing to resume" in err
        assert "Traceback" not in err
