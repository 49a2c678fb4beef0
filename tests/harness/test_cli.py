"""Tests for the harness CLI (python -m repro.harness)."""

import pytest

from repro.harness.__main__ import main


class TestCli:
    def test_runs_selected_experiment(self, capsys):
        rc = main(["eq1", "--length", "500", "--benchmarks", "bfs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eq1" in out
        assert "hits_required" in out

    def test_runs_multiple_experiments(self, capsys):
        rc = main(["fig10", "eq1", "--length", "500", "--benchmarks", "bfs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "eq1" in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["eq1", "--benchmarks", "doom"])

    def test_benchmark_restriction_applies(self, capsys):
        rc = main(["fig10", "--length", "400", "--benchmarks", "lbm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lbm" in out
        assert "bfs" not in out

    def test_unknown_benchmark_message_names_known(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eq1", "--benchmarks", "doom"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'doom'" in err
        assert "bfs" in err  # message lists the known roster
        assert "Traceback" not in err

    def test_unknown_engine_exits_cleanly(self, capsys):
        """Engine errors inside experiments surface as messages, not
        tracebacks."""
        from repro.harness.experiments import EXPERIMENTS
        from repro.harness.runner import ExperimentContext

        def bad_experiment(ctx: ExperimentContext):
            return ctx.run("bfs", "not-an-engine")

        EXPERIMENTS["badkey-test"] = bad_experiment
        try:
            rc = main(["badkey-test", "--length", "300"])
        finally:
            del EXPERIMENTS["badkey-test"]
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "not-an-engine" in err
        assert "Traceback" not in err

    def test_workers_one_is_the_default(self, capsys):
        args = ["eq1", "--length", "300", "--benchmarks", "bfs"]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main(args + ["--workers", "1"]) == 0
        assert capsys.readouterr().out == default

    def test_workers_flag_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eq1", "--workers", "zero"])
        assert excinfo.value.code == 2
        for value in ("0", "-2", "auto"):
            with pytest.raises(SystemExit) as excinfo:
                main(["eq1", "--workers", value])
            assert excinfo.value.code == 2


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestWorkersFlag:
    @pytest.mark.parametrize("argv", [
        ["eq1", "--length", "300", "--benchmarks", "bfs", "--cache-dir", ""],
        ["sweep", "partitions", "bfs", "--length", "300", "--cache-dir", ""],
        ["inject", "bfs", "--length", "300", "--cache-dir", ""],
        ["conform", "--fuzz", "2"],
    ], ids=["experiments", "sweep", "inject", "conform"])
    def test_workers_without_run_journal_is_usage_error(self, argv, capsys):
        # The lease executor keeps its queue in the run directory, so
        # asking for it with journaling off must not run serially.
        rc = _exit_code(argv + ["--workers", "2", "--run-dir", ""])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "--workers needs a run journal" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["profile", "bfs"]], ids=["profile"])
    def test_replay_commands_take_no_workers(self, argv, capsys):
        assert _exit_code(argv + ["--workers", "2"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_bench_subcommand_is_an_unknown_experiment(self, capsys):
        # A script still calling the deleted replay-throughput
        # subcommand gets a usage error, not a run.
        assert _exit_code(["bench"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown experiments: ['bench']" in captured.err


class TestProfileCli:
    def test_unknown_benchmark_rejected(self, capsys):
        from repro.harness.__main__ import profile_main

        with pytest.raises(SystemExit) as excinfo:
            profile_main(["doom"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'doom'" in err

    def test_unknown_engine_rejected(self, capsys):
        from repro.harness.__main__ import profile_main

        with pytest.raises(SystemExit) as excinfo:
            profile_main(["bfs", "--engine", "fort-knox"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'fort-knox'" in err
        assert "plutus" in err


class TestInjectCli:
    def test_quick_campaign_passes(self, capsys):
        rc = main(["inject", "bfs", "--campaign", "quick",
                   "--length", "600", "--cache-dir", ""])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault class" in out
        assert "verdict: PASS" in out
        for engine in ("plutus", "pssm", "functional"):
            assert engine in out

    def test_engine_roster_restriction(self, capsys):
        rc = main(["inject", "bfs", "--campaign", "quick",
                   "--engines", "pssm", "functional",
                   "--length", "600", "--cache-dir", ""])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pssm" in out and "functional" in out
        assert "2 engine(s)" in out

    def test_unknown_campaign_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "bfs", "--campaign", "blitz"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown campaign 'blitz'" in err
        assert "quick" in err

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "doom"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'doom'" in err

    def test_unknown_engine_variant_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "bfs", "--engines", "fort-knox"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine variant 'fort-knox'" in err

    def test_missed_fault_exits_nonzero(self, capsys, monkeypatch):
        """A campaign with any MISSED outcome must fail the process."""
        from repro.faults import campaign as campaign_mod
        from repro.faults.campaign import Outcome, TrialRecord
        from repro.faults.plan import FaultKind, InjectionPlan

        real_run = campaign_mod.run_campaign

        def sabotaged(spec, ops=None):
            report = real_run(spec, ops)
            report.records.append(
                TrialRecord(
                    engine="plutus",
                    plan=InjectionPlan(
                        kind=FaultKind.BITFLIP, address=0, trigger_index=1
                    ),
                    outcome=Outcome.MISSED,
                    exception=None,
                    detail="synthetic miss for the exit-code test",
                )
            )
            return report

        monkeypatch.setattr(
            "repro.harness.inject.run_campaign", sabotaged
        )
        rc = main(["inject", "bfs", "--campaign", "quick",
                   "--length", "600", "--cache-dir", ""])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "MISS:" in out
