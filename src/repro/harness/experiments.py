"""One runner per paper table/figure.

Each ``run_*`` function reproduces one evaluation artifact of the paper
and returns an :class:`ExperimentResult` with per-benchmark rows, a
summary, and the paper's reference numbers for EXPERIMENTS.md. The
module-level :data:`EXPERIMENTS` registry is what the CLI and the bench
suite iterate over.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.resilience import Campaign

from repro.analysis.empirical import run_forgery_experiment
from repro.analysis.forgery import design_space, forgery_probability
from repro.analysis.storage import design_comparison
from repro.analysis.power import EnergyParams, estimate_power, power_overhead
from repro.analysis.summarize import improvement_summary
from repro.gpu.perf_model import normalized_ipc
from repro.harness.runner import DEFAULT_TRACE_LENGTH, ExperimentContext
from repro.workloads.stats import characterize
from repro.workloads.values import study_trace_values


@dataclass
class ExperimentResult:
    """Structured output of one reproduced table/figure."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)
    paper_reference: Dict[str, object] = field(default_factory=dict)
    notes: str = ""


def _ipc(ctx: ExperimentContext, benchmark: str, engine: str) -> float:
    return normalized_ipc(
        ctx.run(benchmark, engine), ctx.run(benchmark, "nosec")
    )


def run_fig06(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 6: IPC of the PSSM-secured GPU normalized to no security."""
    result = ExperimentResult(
        "fig06",
        "Performance overhead of secure GPU memory (PSSM vs no security)",
        paper_reference={
            "description": "secured IPC well below 1.0, worst for "
                           "irregular benchmarks"
        },
    )
    ipcs: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        ipc = _ipc(ctx, bench, "pssm")
        ipcs[bench] = ipc
        result.rows.append({"benchmark": bench, "ipc_normalized": ipc})
    result.summary = improvement_summary(ipcs)
    return result


def run_fig07(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 7: DRAM traffic breakdown under PSSM (data/counter/MAC/BMT)."""
    result = ExperimentResult(
        "fig07",
        "Memory traffic breakdown of the PSSM baseline",
        paper_reference={
            "description": ">200% extra bandwidth for irregular patterns"
        },
    )
    overheads: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        report = ctx.run(bench, "pssm").traffic
        row = {"benchmark": bench}
        row.update(report.breakdown())
        row["metadata_overhead"] = report.metadata_overhead
        overheads[bench] = report.metadata_overhead
        result.rows.append(row)
    result.summary = improvement_summary(overheads)
    return result


def run_fig09(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 9: value-reuse fractions under the three study scenarios."""
    result = ExperimentResult(
        "fig09",
        "Sector value reuse (full / two-halves / masked scenarios)",
        paper_reference={
            "description": "large reuse fractions, masked > halves > full"
        },
    )
    masked: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        report = study_trace_values(ctx.trace(bench))
        row = {"benchmark": bench}
        row.update(report)
        masked[bench] = report["masked"]
        result.rows.append(row)
    result.summary = improvement_summary(masked)
    return result


def run_fig10(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 10: read/write request breakdown per benchmark."""
    result = ExperimentResult(
        "fig10",
        "Read vs write memory-request breakdown",
        paper_reference={
            "description": "most benchmarks read-dominated; a few "
                           "write-heavy outliers"
        },
    )
    reads: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        stats = characterize(ctx.trace(bench))
        reads[bench] = stats.read_fraction
        result.rows.append(
            {
                "benchmark": bench,
                "read_fraction": stats.read_fraction,
                "write_fraction": stats.write_fraction,
            }
        )
    result.summary = improvement_summary(reads)
    return result


def run_fig15(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 15: value-based integrity verification alone vs PSSM."""
    result = ExperimentResult(
        "fig15",
        "Value-based integrity verification (speedup over PSSM)",
        paper_reference={"mean": 1.0494, "max": 1.1989},
    )
    speedups: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        ratio = _ipc(ctx, bench, "plutus:value-only") / _ipc(ctx, bench, "pssm")
        speedups[bench] = ratio
        result.rows.append({"benchmark": bench, "speedup_vs_pssm": ratio})
    result.summary = improvement_summary(speedups)
    return result


def run_fig16(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 16: the three metadata-granularity designs vs PSSM."""
    result = ExperimentResult(
        "fig16",
        "Metadata fetch granularity designs (speedup over 128B baseline)",
        paper_reference={
            "mean_32B_all": 1.1057,
            "max_32B_all": 1.7485,
            "ordering": "32B-all >= 32B-leaf >= 128B",
        },
        notes=(
            "The bandwidth-only model reproduces the ordering of the "
            "three designs but compresses the magnitude; cycle-level "
            "effects (MSHR occupancy, fetch latency of 4-sector blocks) "
            "that amplify the win are out of scope."
        ),
    )
    d3: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        base = _ipc(ctx, bench, "gran:128B")
        row = {
            "benchmark": bench,
            "design_128B": 1.0,
            "design_32B_leaf": _ipc(ctx, bench, "gran:32B-leaf") / base,
            "design_32B_all": _ipc(ctx, bench, "gran:32B-all") / base,
        }
        d3[bench] = row["design_32B_all"]
        result.rows.append(row)
    result.summary = improvement_summary(d3)
    return result


def run_fig17(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 17: 2-bit / 3-bit / adaptive compact counters vs PSSM."""
    result = ExperimentResult(
        "fig17",
        "Compact mirrored counter designs (speedup over PSSM)",
        paper_reference={
            "mean_adaptive": 1.0207,
            "max_adaptive": 1.0828,
            "ordering": "adaptive >= 3bit >= 2bit on average",
        },
    )
    adaptive: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        base = _ipc(ctx, bench, "pssm")
        row = {
            "benchmark": bench,
            "compact_2bit": _ipc(ctx, bench, "compact:2bit") / base,
            "compact_3bit": _ipc(ctx, bench, "compact:3bit") / base,
            "compact_adaptive": _ipc(ctx, bench, "compact:adaptive") / base,
        }
        adaptive[bench] = row["compact_adaptive"]
        result.rows.append(row)
    result.summary = improvement_summary(adaptive)
    return result


def run_fig18(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 18: full Plutus vs PSSM and common-counters+PSSM."""
    result = ExperimentResult(
        "fig18",
        "Plutus overall speedup",
        paper_reference={
            "mean_vs_pssm": 1.1686,
            "max_vs_pssm": 1.5838,
            "mean_vs_common_counters": 1.0897,
        },
    )
    vs_pssm: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        pssm = _ipc(ctx, bench, "pssm")
        cc = _ipc(ctx, bench, "common-counters")
        plutus = _ipc(ctx, bench, "plutus")
        vs_pssm[bench] = plutus / pssm
        result.rows.append(
            {
                "benchmark": bench,
                "pssm_ipc": pssm,
                "common_counters_ipc": cc,
                "plutus_ipc": plutus,
                "speedup_vs_pssm": plutus / pssm,
                "speedup_vs_cc": plutus / cc,
            }
        )
    result.summary = improvement_summary(vs_pssm)
    result.summary["mean_vs_cc"] = sum(
        r["speedup_vs_cc"] for r in result.rows
    ) / len(result.rows)
    return result


def run_fig19(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 19: security-metadata traffic reduction of Plutus vs PSSM."""
    result = ExperimentResult(
        "fig19",
        "Security metadata traffic reduction",
        paper_reference={"mean": 0.4814, "max": 0.8030},
    )
    reductions: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        pssm = ctx.run(bench, "pssm").traffic
        plutus = ctx.run(bench, "plutus").traffic
        reduction = plutus.metadata_reduction_vs(pssm)
        reductions[bench] = reduction
        result.rows.append(
            {
                "benchmark": bench,
                "pssm_metadata_bytes": pssm.metadata_bytes,
                "plutus_metadata_bytes": plutus.metadata_bytes,
                "reduction": reduction,
            }
        )
    result.summary = improvement_summary(reductions)
    return result


def run_fig20(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 20: Plutus with integrity-tree traffic eliminated."""
    result = ExperimentResult(
        "fig20",
        "Plutus with tree traffic eliminated (MGX/TNPU-style context)",
        paper_reference={
            "description": "Plutus remains effective when counters/tree "
                           "are optimized away by orthogonal schemes"
        },
    )
    gains: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        base = _ipc(ctx, bench, "pssm:no-tree")
        plutus = _ipc(ctx, bench, "plutus:no-tree")
        gains[bench] = plutus / base
        result.rows.append(
            {
                "benchmark": bench,
                "baseline_no_tree_ipc": base,
                "plutus_no_tree_ipc": plutus,
                "speedup": plutus / base,
            }
        )
    result.summary = improvement_summary(gains)
    return result


def run_fig21(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 21: sensitivity of Plutus to the value-cache size."""
    sizes = (64, 128, 256, 512, 1024)
    result = ExperimentResult(
        "fig21",
        "Value-cache size sensitivity",
        paper_reference={
            "description": "256 entries per partition capture most of "
                           "the repeated values; larger brings little"
        },
    )
    gain_at_256: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        pssm = _ipc(ctx, bench, "pssm")
        row: Dict[str, object] = {"benchmark": bench}
        for entries in sizes:
            row[f"entries_{entries}"] = (
                _ipc(ctx, bench, f"plutus:vcache-{entries}") / pssm
            )
        gain_at_256[bench] = float(row["entries_256"])
        result.rows.append(row)
    result.summary = improvement_summary(gain_at_256)
    return result


def run_fig22(ctx: ExperimentContext) -> ExperimentResult:
    """Fig. 22: average power normalized to a no-security system."""
    result = ExperimentResult(
        "fig22",
        "Power overhead of secure memory",
        paper_reference={"pssm_overhead": 0.369, "plutus_overhead": 0.178},
    )
    params = EnergyParams()
    plutus_overheads: Dict[str, float] = {}
    for bench in ctx.benchmarks:
        nosec = ctx.run(bench, "nosec")
        base_power = estimate_power(nosec, nosec.total_bytes, params)
        row: Dict[str, object] = {"benchmark": bench}
        for engine in ("pssm", "plutus"):
            res = ctx.run(bench, engine)
            est = estimate_power(res, nosec.total_bytes, params)
            row[f"{engine}_power_overhead"] = power_overhead(est, base_power)
        plutus_overheads[bench] = float(row["plutus_power_overhead"])
        result.rows.append(row)
    result.summary = improvement_summary(
        {b: 1.0 + v for b, v in plutus_overheads.items()}
    )
    return result


def run_eq1(ctx: ExperimentContext) -> ExperimentResult:
    """Eq. 1: the forgery-probability design-space table."""
    result = ExperimentResult(
        "eq1",
        "Value-check forgery probability (binomial analysis)",
        paper_reference={
            "hits_required_at_256": 3,
            "bound": "below 8B-MAC collision rate (2^-64) per sector",
        },
    )
    for row in design_space():
        result.rows.append(
            {
                "cache_entries": row.cache_entries,
                "hits_required": row.hits_required,
                "per_unit_probability": row.per_unit_probability,
                "per_sector_probability": row.per_sector_probability,
                "beats_8B_mac": row.beats_8B_mac,
            }
        )
    result.summary = {
        "sector_probability_at_256_x3": forgery_probability(
            256, 28, 4, 3, units_per_access=2
        )
    }
    return result


#: Registry consumed by the CLI and the bench suite.
EXPERIMENTS: Dict[str, Callable[[ExperimentContext], ExperimentResult]] = {
    "fig06": run_fig06,
    "fig07": run_fig07,
    "fig09": run_fig09,
    "fig10": run_fig10,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "fig17": run_fig17,
    "fig18": run_fig18,
    "fig19": run_fig19,
    "fig20": run_fig20,
    "fig21": run_fig21,
    "fig22": run_fig22,
    "eq1": run_eq1,
}


def run_ext_storage(ctx: ExperimentContext) -> ExperimentResult:
    """Extension: Section IV-F storage accounting as a table."""
    result = ExperimentResult(
        "ext-storage",
        "Metadata storage by design (Section IV-F)",
        paper_reference={
            "description": "BMT storage grows from ~145 kB-class to "
                           "1.33 MB under 32B granularity; value cache "
                           "~1 kB; compact layer adds 2x2 kB caches"
        },
    )
    for name, report in design_comparison().items():
        row: Dict[str, object] = {"design": name}
        row.update(report.breakdown())
        row["offchip_fraction_of_data"] = report.offchip_fraction_of_data
        row["onchip_sram_bytes"] = (
            report.onchip_metadata_sram_bytes + report.onchip_value_cache_bytes
        )
        result.rows.append(row)
    result.summary = {
        "plutus_bmt_mib": design_comparison()["plutus"].bmt_bytes / 1024**2
    }
    return result


def run_ext_forgery(ctx: ExperimentContext) -> ExperimentResult:
    """Extension: Monte-Carlo attack on the value check (real AES-XTS)."""
    experiment = run_forgery_experiment(trials=1000, seed=2023)
    result = ExperimentResult(
        "ext-forgery",
        "Empirical forgery campaign against the value check",
        rows=[
            {
                "trials": experiment.trials,
                "sector_passes": experiment.sector_passes,
                "unit_passes": experiment.unit_passes,
                "tampered_value_hits": experiment.value_hits,
                "expected_value_hit_rate": experiment.expected_value_hit_rate,
            }
        ],
        summary={"sector_pass_rate": experiment.sector_pass_rate},
        paper_reference={
            "description": "analytical bound ~1.2e-35 per sector: zero "
                           "passes at any feasible trial count"
        },
    )
    return result


EXPERIMENTS["ext-storage"] = run_ext_storage
EXPERIMENTS["ext-forgery"] = run_ext_forgery


def run_all(ctx: ExperimentContext) -> Dict[str, ExperimentResult]:
    """Run the full suite (shares all caches through the context)."""
    return {key: fn(ctx) for key, fn in EXPERIMENTS.items()}


# -- supervised decomposition -------------------------------------------------

def experiments_campaign(
    ctx: ExperimentContext, selected: "List[str]"
) -> "Campaign":
    """One supervised work unit per selected experiment.

    Unit identity covers the experiment key plus the context
    fingerprint, so a resumed run only reuses results computed under
    identical trace parameters.
    """
    from repro.resilience import Campaign, WorkUnit

    context_id = ctx.fingerprint()

    def runner_for(key: str):
        def run() -> Dict[str, object]:
            return asdict(EXPERIMENTS[key](ctx))

        return run

    units = [
        WorkUnit(
            kind="experiment",
            params={"experiment": key, "context": context_id},
            runner=runner_for(key),
            label=key,
        )
        for key in selected
    ]
    return Campaign(name="experiments", units=units)


def experiments_campaign_from_params(
    selected: "List[str]",
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 2023,
    benchmarks: "Optional[List[str]]" = None,
    cache_dir: "Optional[str]" = None,
) -> "Campaign":
    """JSON-kwargs form of :func:`experiments_campaign`.

    The worker-side campaign factory of distributed runs: everything
    that shapes results is an explicit JSON-able parameter, and the
    cache root stays outside the context fingerprint, so a worker
    rebuilds the exact campaign the coordinator journaled.
    """
    from repro.workloads.benchmarks import benchmark_names

    ctx = ExperimentContext(
        trace_length=trace_length,
        seed=seed,
        benchmarks=list(benchmarks) if benchmarks else benchmark_names(),
        cache_dir=cache_dir,
    )
    return experiments_campaign(ctx, list(selected))


def result_from_payload(payload: Dict[str, object]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its journaled form."""
    return ExperimentResult(**payload)
