"""Smoke tests: every example script runs end to end.

Examples are the adoption surface; a broken example is a broken
library. Each runs as a subprocess with reduced problem sizes.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240, env=None):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py", "bfs", "1200")
        assert result.returncode == 0, result.stderr
        assert "Plutus vs PSSM" in result.stdout
        assert "tamper" in result.stdout.lower()

    def test_secure_memory_attacks(self):
        result = run_example("secure_memory_attacks.py")
        assert result.returncode == 0, result.stderr
        assert "All attacks detected" in result.stdout
        assert "UNDETECTED" not in result.stdout

    def test_graph_analytics_audit(self):
        result = run_example("graph_analytics_audit.py", "1200")
        assert result.returncode == 0, result.stderr
        assert "Fleet answer" in result.stdout

    @pytest.mark.slow
    def test_design_space_exploration(self):
        result = run_example("design_space_exploration.py", "1000")
        assert result.returncode == 0, result.stderr
        assert "Axis 3" in result.stdout

    def test_custom_trace_import(self, tmp_path):
        # The demo trace goes to the temp directory and must not stay.
        env = {**os.environ, "TMPDIR": str(tmp_path)}
        result = run_example("custom_trace_import.py", env=env)
        assert result.returncode == 0, result.stderr
        assert "Plutus returns" in result.stdout
        assert list(tmp_path.iterdir()) == []

    def test_quickstart_rejects_unknown_benchmark(self):
        result = run_example("quickstart.py", "doom")
        assert result.returncode != 0
