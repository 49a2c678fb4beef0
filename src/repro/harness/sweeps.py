"""Sensitivity and robustness sweeps beyond the paper's figures.

The paper reports single-configuration numbers; a reproduction should
also show they are *stable*. The ``sweep`` subcommand varies the axes
most likely to move the headline result, one cell per axis value:

* ``seeds`` (:func:`seed_cell`) — trace-generation randomness: the
  Plutus-vs-PSSM speedup should vary little across seeds (it is a
  property of the workload class, not of one drawn trace);
* ``trace-length`` (:func:`length_cell`) — window-size convergence: the
  speedup should stabilize as the simulated window grows;
* ``metadata-cache`` (:func:`cache_cell`) — the 2 kB per-partition
  metadata caches of Table II: how sensitive each design is to that
  SRAM budget (Plutus's fine-grained metadata makes better use of small
  caches);
* ``memory-intensity`` (:func:`intensity_cell`) — the performance-model
  blend: gains scale with how memory-bound the kernel is, vanishing at
  I = 0;
* ``partitions`` (:func:`partition_cell`) — scalability across
  memory-partition counts.

Each cell returns one plain row dictionary renderable with
:func:`repro.harness.report.format_table`. A sweep is a supervised
campaign (:func:`sweep_campaign`): one work unit per cell,
content-addressed by its parameters, so a killed sweep resumes from its
journal re-running only unfinished cells.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.common.errors import ReproError
from repro.gpu.config import GpuConfig, VOLTA
from repro.gpu.perf_model import normalized_ipc, slowdown_vs_baseline
from repro.gpu.simulator import replay_events, simulate_l2
from repro.harness.runner import EngineSpec, ExperimentContext
from repro.resilience import Campaign, CampaignOutcome, WorkUnit
from repro.secure.engine import MetadataCacheConfig, NoSecurityEngine
from repro.secure.plutus import PlutusEngine
from repro.secure.pssm import PssmEngine
from repro.workloads.benchmarks import build_trace


def _speedup_for_trace(trace, config: GpuConfig = VOLTA,
                       cache_config: Optional[MetadataCacheConfig] = None):
    """(pssm_ipc, plutus_ipc, speedup) for one prepared trace."""
    log = simulate_l2(trace, config)
    kwargs = {}
    if cache_config is not None:
        kwargs["cache_config"] = cache_config
    base = replay_events(log, EngineSpec(NoSecurityEngine), config)
    pssm = replay_events(log, EngineSpec(PssmEngine, **kwargs), config)
    plutus = replay_events(log, EngineSpec(PlutusEngine, **kwargs), config)
    pssm_ipc = normalized_ipc(pssm, base)
    plutus_ipc = normalized_ipc(plutus, base)
    return pssm_ipc, plutus_ipc, plutus_ipc / pssm_ipc


def seed_cell(
    benchmark: str, seed: int, trace_length: int
) -> Dict[str, object]:
    """Plutus-vs-PSSM speedup at one trace-generation seed."""
    trace = build_trace(benchmark, length=trace_length, seed=seed)
    pssm, plutus, speedup = _speedup_for_trace(trace)
    return {
        "seed": seed,
        "pssm_ipc": pssm,
        "plutus_ipc": plutus,
        "speedup": speedup,
    }


def length_cell(benchmark: str, length: int, seed: int) -> Dict[str, object]:
    """The headline speedup at one window length."""
    trace = build_trace(benchmark, length=length, seed=seed)
    _pssm, _plutus, speedup = _speedup_for_trace(trace)
    return {"length": length, "speedup": speedup}


def cache_cell(
    benchmark: str, size: int, trace_length: int, seed: int
) -> Dict[str, object]:
    """Both designs at one per-partition metadata cache budget."""
    trace = build_trace(benchmark, length=trace_length, seed=seed)
    cache_config = MetadataCacheConfig(size_bytes=size)
    pssm, plutus, speedup = _speedup_for_trace(
        trace, cache_config=cache_config
    )
    return {
        "cache_bytes": size,
        "pssm_ipc": pssm,
        "plutus_ipc": plutus,
        "speedup": speedup,
    }


def intensity_cell(
    ctx: ExperimentContext, benchmark: str, intensity: float
) -> Dict[str, object]:
    """How the roofline blend maps traffic into performance.

    Re-uses the already-simulated traffic of *benchmark* and re-blends
    it at one memory intensity, isolating the performance-model
    assumption from the traffic measurement. The context's own caches
    make the three underlying simulations a one-time cost shared
    across cells.
    """
    base = ctx.run(benchmark, "nosec")
    pssm = ctx.run(benchmark, "pssm")
    plutus = ctx.run(benchmark, "plutus")
    pssm_ipc = 1.0 / slowdown_vs_baseline(
        pssm.total_bytes, base.total_bytes, intensity
    )
    plutus_ipc = 1.0 / slowdown_vs_baseline(
        plutus.total_bytes, base.total_bytes, intensity
    )
    return {
        "memory_intensity": intensity,
        "pssm_ipc": pssm_ipc,
        "plutus_ipc": plutus_ipc,
        "speedup": plutus_ipc / pssm_ipc,
    }


def partition_cell(
    benchmark: str, count: int, trace_length: int, seed: int
) -> Dict[str, object]:
    """The headline speedup at one memory-partition count.

    Smaller GPUs concentrate the same metadata into fewer engines with
    the same per-partition SRAM; the relative Plutus win should persist.
    """
    trace = build_trace(benchmark, length=trace_length, seed=seed)
    config = replace(
        VOLTA,
        address_map=replace(VOLTA.address_map, num_partitions=count),
        dram=replace(VOLTA.dram, num_partitions=count),
    )
    _pssm, _plutus, speedup = _speedup_for_trace(trace, config=config)
    return {"partitions": count, "speedup": speedup}


# -- supervised decomposition -------------------------------------------------

#: Default trace length per sweep (partitions historically sweeps a
#: shorter window) and the axis values each sweep visits.
_SWEEP_DEFAULTS: Dict[str, Dict[str, object]] = {
    "seeds": {"length": 8000, "axis": (1, 2, 3, 4, 5)},
    "trace-length": {"length": 8000, "axis": (2000, 4000, 8000, 16000)},
    "metadata-cache": {"length": 8000, "axis": (1024, 2048, 4096, 8192)},
    "memory-intensity": {"length": 8000, "axis": (0.0, 0.25, 0.5, 0.75, 1.0)},
    "partitions": {"length": 6000, "axis": (8, 16, 32)},
}

#: Sweeps the ``sweep`` subcommand accepts.
SWEEP_NAMES = tuple(sorted(_SWEEP_DEFAULTS))


def sweep_campaign(
    sweep: str,
    benchmark: str,
    trace_length: Optional[int] = None,
    seed: int = 2023,
) -> Campaign:
    """Decompose one sweep into a supervised, resumable campaign.

    Each cell becomes a content-addressed work unit whose parameters
    (sweep, benchmark, axis value, length, seed) define its identity —
    the runner itself does not, so a resumed run on the same parameters
    reuses journaled cells regardless of process or machine.
    """
    if sweep not in _SWEEP_DEFAULTS:
        raise ReproError(
            f"unknown sweep {sweep!r}; known: {sorted(_SWEEP_DEFAULTS)}"
        )
    defaults = _SWEEP_DEFAULTS[sweep]
    length = trace_length if trace_length is not None else defaults["length"]
    axis = defaults["axis"]

    def unit(value, runner) -> WorkUnit:
        return WorkUnit(
            kind=f"sweep:{sweep}",
            params={
                "sweep": sweep,
                "benchmark": benchmark,
                "value": value,
                "length": length,
                "seed": seed,
            },
            runner=runner,
            label=f"{sweep}[{value}]",
        )

    units: List[WorkUnit] = []
    if sweep == "seeds":
        units = [
            unit(s, lambda s=s: seed_cell(benchmark, s, length))
            for s in axis
        ]
    elif sweep == "trace-length":
        units = [
            unit(lv, lambda lv=lv: length_cell(benchmark, lv, seed))
            for lv in axis
        ]
    elif sweep == "metadata-cache":
        units = [
            unit(sz, lambda sz=sz: cache_cell(benchmark, sz, length, seed))
            for sz in axis
        ]
    elif sweep == "memory-intensity":
        shared = ExperimentContext(
            trace_length=length,
            seed=seed,
            benchmarks=[benchmark],
        )
        units = [
            unit(i, lambda i=i: intensity_cell(shared, benchmark, i))
            for i in axis
        ]
    elif sweep == "partitions":
        units = [
            unit(c, lambda c=c: partition_cell(benchmark, c, length, seed))
            for c in axis
        ]
    return Campaign(name=f"sweep:{sweep}:{benchmark}", units=units)


def completed_rows(
    campaign: Campaign, outcome: CampaignOutcome
) -> List[Dict[str, object]]:
    """The completed cells' rows, in the campaign's unit order.

    Cells lost to failure or degradation are simply absent here; the
    report marks them explicitly via
    :func:`repro.resilience.report.missing_cell_lines`.
    """
    results = outcome.results
    return [
        results[unit.unit_id]
        for unit in campaign.units
        if unit.unit_id in results
    ]
