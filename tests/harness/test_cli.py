"""Tests for the harness CLI (python -m repro.harness)."""

import json

import pytest

from repro.faults.campaign import campaign_spec
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
        """An experiment that raises is a missing unit with a message,
        not a traceback, and the run is partial."""
        from repro.harness.experiments import EXPERIMENTS
        from repro.harness.runner import ExperimentContext

        def bad_experiment(ctx: ExperimentContext):
            return ctx.run("bfs", "not-an-engine")

        EXPERIMENTS["badkey-test"] = bad_experiment
        try:
            rc = main(["badkey-test", "--length", "300"])
        finally:
            del EXPERIMENTS["badkey-test"]
        assert rc == 3
        err = capsys.readouterr().err
        assert "MISSING badkey-test: failed (deterministic:" in err
        assert "not-an-engine" in err
        assert "Traceback" not in err

    def test_failed_experiment_runs_once_and_resumes(
        self, capsys, monkeypatch, tmp_path
    ):
        """A unit that raises is journaled failed after one run; only
        --resume runs it again, and the merged report equals an
        uninterrupted run's."""
        from dataclasses import replace

        from repro.harness.experiments import EXPERIMENTS, run_fig10

        calls = {"flaky-test": 0, "eq1": 0}
        real_eq1 = EXPERIMENTS["eq1"]

        def eq1(ctx):
            calls["eq1"] += 1
            return real_eq1(ctx)

        def flaky(ctx):
            calls["flaky-test"] += 1
            if calls["flaky-test"] == 1:
                raise RuntimeError("first call fails")
            return replace(run_fig10(ctx), experiment_id="flaky-test")

        monkeypatch.setitem(EXPERIMENTS, "eq1", eq1)
        monkeypatch.setitem(EXPERIMENTS, "flaky-test", flaky)
        argv = ["eq1", "flaky-test", "--length", "300", "--benchmarks",
                "bfs", "--cache-dir", "", "--run-dir", str(tmp_path)]

        assert main(argv + ["--run-id", "r"]) == 3
        err = capsys.readouterr().err
        assert calls == {"flaky-test": 1, "eq1": 1}
        assert "MISSING flaky-test: failed (crash: RuntimeError: first " \
            "call fails)" in err
        journal = (tmp_path / "r" / "journal.jsonl").read_text()
        records = [json.loads(line) for line in journal.splitlines()]
        assert [
            (r["status"], r["failure_class"])
            for r in records if r.get("label") == "flaky-test"
        ] == [("failed", "crash")]

        assert main(argv + ["--resume", "r"]) == 0
        resumed = capsys.readouterr()
        assert calls == {"flaky-test": 2, "eq1": 1}
        assert "2 total, 1 ok, 1 resumed, 0 failed" in resumed.err
        assert "== eq1:" in resumed.out and "== flaky-test:" in resumed.out

        assert main(argv) == 0  # unnamed: journals nothing
        assert resumed.out == capsys.readouterr().out
        assert calls == {"flaky-test": 3, "eq1": 2}

    def test_repeated_experiment_runs_once(self, capsys):
        rc = main(["eq1", "eq1", "--length", "300", "--benchmarks", "bfs",
                   "--cache-dir", ""])
        assert rc == 0
        assert capsys.readouterr().out.count("== eq1:") == 1

    def test_supervise_flag_is_gone(self, capsys):
        # Experiments always run under the supervisor, so no flag
        # selects it.
        assert _exit_code(["eq1", "--supervise"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --supervise" in captured.err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestWorkersFlag:
    @pytest.mark.parametrize("argv", [
        ["eq1", "--length", "300", "--benchmarks", "bfs", "--cache-dir", "",
         "--run-dir", ""],
        ["sweep", "partitions", "bfs", "--length", "300", "--cache-dir", "",
         "--run-dir", ""],
        ["inject", "bfs", "--length", "300", "--cache-dir", "",
         "--run-dir", ""],
        ["conform", "--fuzz", "2", "--run-dir", ""],
        ["profile", "bfs"],
    ], ids=["experiments", "sweep", "inject", "conform", "profile"])
    def test_replay_commands_take_no_workers(self, argv, capsys):
        # Units run serially in-process: the executor flags are gone
        # from every command, so a script passing one gets a usage
        # error before any work starts.
        # Units run once, so the retry and chaos flags are gone too.
        for flag in (
            ["--workers", "2"],
            ["--lease-ttl", "1"],
            ["--speculate"],
            ["--chaos-workers"],
            ["--retries", "2"],
            ["--backoff", "0.1"],
            ["--chaos"],
            ["--chaos-seed", "7"],
        ):
            assert _exit_code(argv + flag) == 2, flag
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: {' '.join(flag)}" in captured.err

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

        def sabotaged(spec, ops=None, supervisor=None):
            report = real_run(spec, ops, supervisor)
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

    def test_engine_that_raises_is_a_missing_unit(self, capsys, monkeypatch):
        """An engine unit that raises leaves the run partial (exit 3),
        named on stderr without a traceback; the other engines still
        report."""
        from repro.common.errors import FaultInjectionError
        from repro.faults import campaign as campaign_mod

        real_engine = campaign_mod._run_engine

        def broken(engine_name, *args):
            if engine_name == "pssm":
                raise FaultInjectionError("pssm engine broke")
            return real_engine(engine_name, *args)

        monkeypatch.setattr(campaign_mod, "_run_engine", broken)
        rc = main(["inject", "bfs", "--campaign", "quick",
                   "--length", "600", "--cache-dir", ""])
        assert rc == 3
        captured = capsys.readouterr()
        assert "verdict: PASS" in captured.out
        assert "functional" in captured.out
        assert (
            "MISSING quick:pssm: failed (deterministic: "
            "FaultInjectionError: pssm engine broke)"
        ) in captured.err
        assert "Traceback" not in captured.err

    def test_fault_campaign_journals_and_resumes(self, capsys, tmp_path):
        run_dir = tmp_path / "R"
        argv = ["inject", "bfs", "--campaign", "quick", "--length", "1000",
                "--cache-dir", "", "--run-dir", str(run_dir)]
        assert main(argv + ["--run-id", "f1"]) == 0
        fresh = capsys.readouterr().out
        journal = run_dir / "f1" / "journal.jsonl"
        records = map(json.loads, journal.read_text().splitlines())
        units = [r for r in records if r["type"] == "unit"]
        engines = campaign_spec("quick").engines
        assert sorted(r["label"] for r in units) == sorted(
            f"quick:{engine}" for engine in engines
        )

        assert main(argv + ["--resume", "f1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == fresh
        assert f"{len(engines)} resumed" in captured.err

        assert main(argv + ["--resume", "ghost"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nothing to resume" in captured.err

        assert main(argv + ["--run-id", "f1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--resume f1" in captured.err
