"""Analysis: forgery probability (Eq. 1), security levels, power model."""

from repro.analysis.forgery import (
    ForgeryAnalysis,
    binomial_tail,
    design_space,
    forgery_probability,
    minimum_hits_required,
    single_hit_probability,
)
from repro.analysis.empirical import ForgeryExperiment, run_forgery_experiment
from repro.analysis.power import (
    EnergyParams,
    PowerEstimate,
    estimate_power,
    kernel_seconds,
    power_overhead,
)
from repro.analysis.storage import StorageReport, design_comparison, storage_report
from repro.analysis.security import (
    SecurityLevel,
    comparison_table,
    counter_lifetime_writes,
    mac_collision,
    storage_overhead_fraction,
    value_check_level,
)
from repro.analysis.summarize import (
    arithmetic_mean,
    geometric_mean,
    improvement_summary,
    normalize_by,
    percent,
    stack_fractions,
    transpose,
)

__all__ = [
    "EnergyParams",
    "ForgeryExperiment",
    "StorageReport",
    "design_comparison",
    "kernel_seconds",
    "run_forgery_experiment",
    "storage_report",
    "ForgeryAnalysis",
    "PowerEstimate",
    "SecurityLevel",
    "arithmetic_mean",
    "binomial_tail",
    "comparison_table",
    "counter_lifetime_writes",
    "design_space",
    "estimate_power",
    "forgery_probability",
    "geometric_mean",
    "improvement_summary",
    "mac_collision",
    "minimum_hits_required",
    "normalize_by",
    "percent",
    "power_overhead",
    "single_hit_probability",
    "stack_fractions",
    "storage_overhead_fraction",
    "transpose",
    "value_check_level",
]
