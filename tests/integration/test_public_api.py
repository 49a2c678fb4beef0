"""Tests for the public API surface (repro and repro.core)."""

import importlib

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_headline_types_importable(self):
        from repro import GpuConfig, SecureMemory, VOLTA, build_trace

        assert VOLTA.num_partitions == 32
        assert callable(build_trace)
        assert SecureMemory and GpuConfig


class TestCorePackage:
    def test_core_reexports_the_contribution(self):
        from repro.core import (
            CompactCounterState,
            GranularityDesign,
            PlutusEngine,
            SecureMemory,
            ValueCache,
        )

        assert PlutusEngine.name == "plutus"
        assert SecureMemory and ValueCache and CompactCounterState
        assert GranularityDesign.ALL_32

    def test_core_all_resolves(self):
        core = importlib.import_module("repro.core")
        for name in core.__all__:
            assert getattr(core, name, None) is not None, name


class TestSubpackageAlls:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.common",
            "repro.crypto",
            "repro.mem",
            "repro.metadata",
            "repro.secure",
            "repro.gpu",
            "repro.workloads",
            "repro.analysis",
            "repro.harness",
        ],
    )
    def test_every_all_name_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert getattr(mod, name, None) is not None, f"{module}.{name}"


class TestImportPath:
    def test_experiment_path_leaves_resilience_unloaded(self):
        # The supervisor, lease queue and worker stack load only when a
        # subcommand asks for them, not with every experiment run.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys, repro.harness.experiments, repro.harness.runner\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.resilience')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"
