"""The perfbench performance gate (benchmarks/perfbench_ab.py)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_script(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = load_script("perfbench_ab", REPO_ROOT / "benchmarks" / "perfbench_ab.py")
BOUNDS = gate.benchmark_spec()["end_to_end"]
METRICS = [bound["name"] for bound in BOUNDS]


def result(correct=True, failed=0, **values):
    """An untraced ``perfbench/run.py`` result line, every metric 1.0
    unless given."""
    return {
        "correct": correct, "attempted": 15, "failed": failed,
        "metrics": {name: {"value": values.get(name, 1.0), "unit": "s"}
                    for name in METRICS},
    }


def traced(correct=True, failed=0):
    """A ``--trace 1`` result line: per-layer metrics only."""
    return {
        "correct": correct, "attempted": 30, "failed": failed,
        "metrics": {"gpu.replay.self_s": {"value": 0.5, "unit": "s"}},
    }


def pairs(**head_values):
    return ([result() for _ in range(gate.PAIRS)],
            [result(**head_values) for _ in range(gate.PAIRS)])


class TestVerdict:
    def test_within_every_bound_passes(self):
        base, head = pairs(**{
            bound["name"]: 1.0 + 0.9 * bound["bound"] for bound in BOUNDS
        })
        report, failures = gate.verdict(traced(), base, head, BOUNDS)
        assert failures == []
        assert [line.split(":")[0] for line in report] == METRICS
        assert all("head better in 0/10 pairs" in line for line in report)

    def test_a_faster_head_passes_and_wins_its_pairs(self):
        base, head = pairs(**{name: 0.5 for name in METRICS})
        report, failures = gate.verdict(traced(), base, head, BOUNDS)
        assert failures == []
        assert all("head better in 10/10 pairs" in line for line in report)

    @pytest.mark.parametrize("bound", BOUNDS, ids=METRICS)
    def test_past_the_bound_on_one_metric_fails_naming_it(self, bound):
        base, head = pairs(**{bound["name"]: 1.0 + 1.1 * bound["bound"]})
        _, failures = gate.verdict(traced(), base, head, BOUNDS)
        assert len(failures) == 1
        assert failures[0].startswith(f"{bound['name']}: ")
        assert f"bound of {bound['bound']}" in failures[0]

    def test_one_slow_pair_does_not_move_the_median(self):
        base, head = pairs()
        head[3] = result(**{METRICS[0]: 100.0})
        assert gate.verdict(traced(), base, head, BOUNDS)[1] == []

    @pytest.mark.parametrize("correct, failed", [(False, 0), (True, 2)],
                             ids=["correct-false", "failed-ops"])
    def test_a_failing_head_call_fails(self, correct, failed):
        base, head = pairs()
        head[4] = result(correct=correct, failed=failed)
        _, failures = gate.verdict(traced(), base, head, BOUNDS)
        assert failures == [
            f"head pair 5: correct {correct}, failed {failed} of 15 "
            "operations"
        ]

    @pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)],
                             ids=["correct-false", "failed-ops"])
    def test_a_failing_traced_warmup_fails(self, correct, failed):
        base, head = pairs()
        _, failures = gate.verdict(traced(correct, failed), base, head,
                                   BOUNDS)
        assert len(failures) == 1
        assert failures[0].startswith("head warm-up: ")

    def test_only_the_heads_results_are_checked(self):
        base, head = pairs()
        base[0] = result(correct=False, failed=3)
        assert gate.verdict(traced(), base, head, BOUNDS)[1] == []


def test_gated_metrics_are_what_run_py_reports(monkeypatch):
    """A metric renamed on either side would otherwise go ungated."""
    perfbench = REPO_ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    before = set(sys.modules)
    try:
        run = load_script("perfbench_run", perfbench / "run.py")
        emitted = run.end_to_end([{"cpu_s": 1.0, "setup_s": 0.2,
                                   "peak_rss_mb": 50.0}])
    finally:
        # run.py imports its siblings (spec, verify, ...) by bare name.
        for name in set(sys.modules) - before:
            module_file = getattr(sys.modules[name], "__file__", None) or ""
            if Path(module_file).parent == perfbench:
                del sys.modules[name]
    assert sorted(METRICS) == sorted(emitted)
    assert len(METRICS) == len(set(METRICS))


class TestRunPerfbench:
    def stub(self, tmp_path, source):
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(source)
        return tmp_path

    def test_returns_the_last_line_and_echoes_failures(self, tmp_path,
                                                       capsys):
        tree = self.stub(tmp_path, (
            "import json, sys\n"
            "print('failed operation: fig09')\n"
            "print(json.dumps(sys.argv[1:]))\n"
        ))
        assert gate.run_perfbench(tree, "replay-reads", "--trace", "1") == [
            "--workload", "replay-reads", "--seed", "2023", "--seconds", "0",
            "--trace", "1",
        ]
        assert "failed operation: fig09" in capsys.readouterr().out

    @pytest.mark.parametrize("source, message", [
        ("raise SystemExit(3)\n", "exited with code 3"),
        ("print('done')\n", "printed no result"),
        ("", "printed no result"),
    ], ids=["nonzero", "no-json", "no-output"])
    def test_a_call_without_a_result_raises(self, tmp_path, source, message):
        tree = self.stub(tmp_path, source)
        with pytest.raises(gate.CallFailed, match=message):
            gate.run_perfbench(tree, "replay-reads")


class TestMain:
    @pytest.fixture
    def base(self, tmp_path):
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").touch()
        return tmp_path

    @staticmethod
    def fake_calls(monkeypatch, **head_values):
        """Record the gate's ``run.py`` calls instead of making them."""
        made = []

        def fake(tree, workload, *extra):
            made.append((tree, workload, extra))
            if extra:
                return traced()
            return result(**head_values) if tree == gate.HEAD else result()

        monkeypatch.setattr(gate, "run_perfbench", fake)
        return made

    def test_pairs_alternate_after_one_warmup_each(self, base, monkeypatch,
                                                   capsys):
        calls = self.fake_calls(monkeypatch)
        assert gate.main([str(base), "replay-reads"]) == 0
        assert calls[:2] == [(base, "replay-reads", ()),
                             (gate.HEAD, "replay-reads", ("--trace", "1"))]
        assert [tree for tree, _, _ in calls[2:]] == (
            [base, gate.HEAD, gate.HEAD, base] * (gate.PAIRS // 2))
        assert "replay-reads: 10 pairs, seed 2023" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", BOUNDS, ids=METRICS)
    def test_a_slower_head_exits_one(self, bound, base, monkeypatch, capsys):
        self.fake_calls(monkeypatch,
                        **{bound["name"]: 1.0 + 2 * bound["bound"]})
        assert gate.main([str(base), "trace-analysis"]) == 1
        assert f"FAILED {bound['name']}: " in capsys.readouterr().err

    def test_a_call_exiting_nonzero_exits_one(self, base, capsys):
        (base / "perfbench" / "run.py").write_text("raise SystemExit(1)\n")
        assert gate.main([str(base), "replay-writes"]) == 1
        assert "run.py exited with code 1" in capsys.readouterr().err

    def test_base_without_perfbench_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            gate.main([str(tmp_path), "replay-reads"])
        assert excinfo.value.code == 2
        assert "has no perfbench/run.py" in capsys.readouterr().err

    def test_unknown_workload_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            gate.main([str(REPO_ROOT), "fig09"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fig09'" in capsys.readouterr().err
