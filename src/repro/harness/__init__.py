"""Experiment harness: cached runner, per-figure experiments, reports."""

from repro.harness.experiments import EXPERIMENTS, ExperimentResult, run_all
from repro.harness.report import format_bars, format_table, render_experiment
from repro.harness.runner import DEFAULT_TRACE_LENGTH, ExperimentContext

__all__ = [
    "DEFAULT_TRACE_LENGTH",
    "EXPERIMENTS",
    "ExperimentContext",
    "ExperimentResult",
    "format_bars",
    "format_table",
    "render_experiment",
    "run_all",
]
