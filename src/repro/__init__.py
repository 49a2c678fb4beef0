"""Plutus: bandwidth-efficient memory security for GPUs (HPCA 2023).

A full reproduction of the paper's system and evaluation:

* :mod:`repro.crypto` — from-scratch AES, XTS, CME and CMAC, plus
  HMAC-SHA-256 from the standard library's ``hashlib``;
* :mod:`repro.mem` — sectored caches, address map, DRAM, traffic;
* :mod:`repro.metadata` — split/compact counters, BMT, ToC, layouts;
* :mod:`repro.core` (= :mod:`repro.secure`) — PSSM / common-counters /
  Plutus engines plus a functional (really-encrypted, attackable)
  secure memory;
* :mod:`repro.gpu` — trace-driven simulator and performance model;
* :mod:`repro.workloads` — calibrated synthetic benchmark suite;
* :mod:`repro.analysis` — Eq. 1 forgery analysis, security, power;
* :mod:`repro.harness` — one runner per paper table/figure.

Quick start::

    from repro import quick_comparison
    print(quick_comparison("bfs"))
"""

from repro.gpu.config import VOLTA, GpuConfig
from repro.gpu.perf_model import normalized_ipc
from repro.gpu.simulator import replay_events, simulate, simulate_l2
from repro.secure.functional import SecureMemory
from repro.workloads.benchmarks import benchmark_names, build_trace

__version__ = "1.0.0"


def quick_comparison(benchmark: str = "bfs", length: int = 20000) -> str:
    """One-call demo: PSSM vs Plutus on one benchmark.

    Returns a small text report with normalized IPC and metadata-traffic
    reduction — the paper's two headline metrics.
    """
    from repro.harness.runner import ExperimentContext

    ctx = ExperimentContext(trace_length=length, benchmarks=[benchmark])
    base = ctx.run(benchmark, "nosec")
    pssm = ctx.run(benchmark, "pssm")
    plutus = ctx.run(benchmark, "plutus")
    ipc_pssm = normalized_ipc(pssm, base)
    ipc_plutus = normalized_ipc(plutus, base)
    reduction = plutus.traffic.metadata_reduction_vs(pssm.traffic)
    return (
        f"{benchmark}: IPC (vs no security) PSSM={ipc_pssm:.3f} "
        f"Plutus={ipc_plutus:.3f} "
        f"(+{(ipc_plutus / ipc_pssm - 1) * 100:.1f}%), "
        f"metadata traffic -{reduction * 100:.1f}%"
    )


__all__ = [
    "GpuConfig",
    "SecureMemory",
    "VOLTA",
    "benchmark_names",
    "build_trace",
    "normalized_ipc",
    "quick_comparison",
    "replay_events",
    "simulate",
    "simulate_l2",
    "__version__",
]
