"""The supervised ``sweep`` subcommand: reports, budgets, chaos, resume."""

import pytest

from repro.harness.__main__ import main


def run_sweep(capsys, *extra, rc_expected=0):
    args = [
        "sweep", "memory-intensity", "bfs", "--length", "400",
        "--run-dir", "",  # journal off unless a test opts in
        *extra,
    ]
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == rc_expected, captured.err
    return captured


class TestSweepCli:
    def test_reports_table_and_summary(self, capsys):
        captured = run_sweep(capsys)
        assert "== sweep memory-intensity on bfs ==" in captured.out
        assert "memory_intensity" in captured.out
        assert "speedup" in captured.out
        # Supervisor summary goes to stderr, keeping stdout pure report.
        assert "== campaign sweep:memory-intensity:bfs: COMPLETE ==" \
            in captured.err
        assert "5 ok" in captured.err

    def test_unknown_sweep_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "doom", "bfs"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown sweep 'doom'" in err
        assert "Traceback" not in err

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "seeds", "doom"])
        assert excinfo.value.code == 2

    def test_report_out_written_atomically(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.txt"
        captured = run_sweep(capsys, "--report-out", str(out_path))
        assert out_path.read_text() == captured.out

    def test_exhausted_budget_is_partial_with_missing_cells(self, capsys):
        captured = run_sweep(capsys, "--budget", "0.000001", rc_expected=3)
        assert "PARTIAL" in captured.err
        assert "wall-clock budget exhausted" in captured.err
        assert "MISSING memory-intensity[" in captured.out

    def test_chaos_mode_survives_with_retries(self, capsys):
        captured = run_sweep(
            capsys, "--chaos", "--chaos-seed", "7",
            "--retries", "8", "--backoff", "0.001",
        )
        assert "COMPLETE" in captured.err

    def test_journal_resume_reuses_cells(self, capsys, tmp_path):
        run_dir = str(tmp_path / "runs")
        fresh = main([
            "sweep", "memory-intensity", "bfs", "--length", "400",
            "--run-dir", run_dir, "--run-id", "r1",
        ])
        assert fresh == 0
        fresh_out = capsys.readouterr().out

        rc = main([
            "sweep", "memory-intensity", "bfs", "--length", "400",
            "--run-dir", run_dir, "--resume", "r1",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == fresh_out  # byte-identical resumed report
        assert "5 resumed" in captured.err

    @pytest.mark.parametrize("run_id", [["--run-id", "r1"]],
                             ids=["named"])
    def test_rerun_without_resume_refuses_existing_journal(
        self, capsys, tmp_path, run_id
    ):
        # Results journaled by an earlier run (perhaps by other code)
        # are reused only when asked for with --resume.
        run_dir = tmp_path / "runs"
        argv = [
            "sweep", "memory-intensity", "bfs", "--length", "400",
            "--run-dir", str(run_dir), *run_id,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        [run_path] = run_dir.iterdir()
        journal = run_path / "journal.jsonl"
        before = journal.read_bytes()

        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"--resume {run_path.name}" in captured.err
        assert "--run-id" in captured.err
        assert journal.read_bytes() == before

    def test_unnamed_run_journals_nothing(self, capsys, tmp_path):
        # Only a named run (--run-id or --resume) writes a journal.
        run_dir = tmp_path / "runs"
        run_sweep(capsys, "--run-dir", str(run_dir))
        assert not run_dir.exists()

    def test_resume_unknown_run_id_is_usage_error(self, capsys, tmp_path):
        rc = main([
            "sweep", "memory-intensity", "bfs", "--length", "400",
            "--run-dir", str(tmp_path / "runs"), "--resume", "ghost",
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "nothing to resume" in captured.err

    def test_listed_in_list_subcommand(self, capsys):
        rc = main(["list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweeps:" in out
        assert "memory-intensity" in out
