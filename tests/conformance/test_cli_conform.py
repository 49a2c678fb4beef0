"""CLI tests for the ``conform`` and ``list`` subcommands."""

import pytest

from repro.harness.__main__ import main


class TestConformCli:
    def test_fuzz_only_campaign_passes(self, capsys):
        rc = main(["conform", "--fuzz", "2", "--seed", "9",
                   "--functional-events", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuzz verdict: PASS" in out
        assert "corpus" not in out

    def test_fuzz_report_names_seed_and_patterns(self, capsys):
        rc = main(["conform", "--fuzz", "1", "--seed", "31",
                   "--functional-events", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed 31" in out

    def test_negative_fuzz_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["conform", "--fuzz", "-1"])
        assert excinfo.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["conform", "--doom"])
        assert excinfo.value.code == 2

    def test_refused_fuzz_journal_runs_no_corpus_stage(
        self, tmp_path, capsys, monkeypatch
    ):
        # A rerun without --resume is refused before the corpus stage
        # spends its time, not after.
        import repro.harness.conform as conform_mod

        calls = []
        real_run_corpus = conform_mod.run_corpus

        def counting_run_corpus(**kwargs):
            calls.append(kwargs)
            return real_run_corpus(**kwargs)

        monkeypatch.setattr(conform_mod, "run_corpus", counting_run_corpus)
        argv = ["conform", "--corpus",
                "--corpus-dir", str(tmp_path / "nowhere"),
                "--fuzz", "1", "--functional-events", "16",
                "--run-dir", str(tmp_path / "runs"), "--run-id", "f1"]
        assert main(argv) == 1  # the corpus directory is missing
        assert len(calls) == 1
        capsys.readouterr()

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(calls) == 1
        assert captured.out == ""
        assert "--resume f1" in captured.err

    def test_mismatched_fuzz_journal_runs_no_corpus_stage(
        self, tmp_path, capsys, monkeypatch
    ):
        # A journal recorded for other fuzz parameters is found only
        # when the supervisor opens it; the fuzz stage runs first, so
        # that still stops the command before the corpus stage.
        import repro.harness.conform as conform_mod

        calls = []
        monkeypatch.setattr(
            conform_mod, "run_corpus", lambda **kwargs: calls.append(kwargs)
        )
        common = ["--functional-events", "16",
                  "--run-dir", str(tmp_path / "runs")]
        assert main(["conform", "--fuzz", "1", "--run-id", "f1",
                     *common]) == 0
        capsys.readouterr()

        rc = main(["conform", "--corpus", "--fuzz", "2", "--resume", "f1",
                   *common])
        captured = capsys.readouterr()
        assert rc == 2
        assert calls == []
        assert captured.out == ""
        assert "cannot resume" in captured.err

    def test_missing_corpus_dir_exits_nonzero(self, tmp_path, capsys):
        rc = main(["conform", "--corpus",
                   "--corpus-dir", str(tmp_path / "nowhere"),
                   "--functional-events", "16"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "missing" in out
        assert "FAIL" in out


class TestListCli:
    def test_lists_every_key_family(self, capsys):
        rc = main(["list"])
        assert rc == 0
        out = capsys.readouterr().out
        for heading in (
            "benchmarks:", "engines:", "experiments:", "fault campaigns:",
            "fuzz patterns:", "corpus entries:", "invariants:",
        ):
            assert heading in out

    def test_names_design_points_and_benchmarks(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "plutus" in out
        assert "bfs" in out
        assert "plutus-leq-pssm" in out

    def test_rejects_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["list", "--doom"])
        assert excinfo.value.code == 2
