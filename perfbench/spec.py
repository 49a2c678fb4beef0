"""The benchmark's workloads: which experiments run over which roster.

Shared by the driver (run.py), the repetition process (rep.py) and the
reference recorder (record.py).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

#: Accesses per benchmark trace, fixed so that every run of every
#: commit simulates the same work.
TRACE_LENGTH = 2000

#: The 14 benchmarks of the paper's evaluation (the harness default).
PAPER_ROSTER = (
    "backprop", "bfs", "gaussian", "hotspot", "kmeans", "pathfinder",
    "srad", "lbm", "spmv", "stencil", "histo", "sssp", "pagerank", "color",
)

#: Every engine design point the replay experiments draw from.
ENGINE_KEYS = (
    "nosec", "pssm", "common-counters", "plutus", "plutus:value-only",
    "gran:128B", "gran:32B-leaf", "gran:32B-all",
    "compact:2bit", "compact:3bit", "compact:adaptive",
    "plutus:no-tree", "pssm:no-tree",
    "plutus:vcache-64", "plutus:vcache-128", "plutus:vcache-256",
    "plutus:vcache-512", "plutus:vcache-1024",
)

_REPLAY_EXPERIMENTS = (
    "fig06", "fig07", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig20", "fig21", "fig22",
)


class Workload(NamedTuple):
    """One set of inputs: experiments, roster, and the layer it avoids."""

    experiments: Tuple[str, ...]
    roster: Tuple[str, ...]
    #: A layer that must see no calls on this workload: the contrast it
    #: was chosen for, checked on every traced run.
    never_calls: str


WORKLOADS: Dict[str, Workload] = {
    # The value-reuse study (fig09), trace statistics, the analytic
    # tables and the real-AES forgery campaign. No engine replay, so a
    # change to the study shows here and nowhere else.
    "trace-analysis": Workload(
        ("eq1", "ext-forgery", "ext-storage", "fig09", "fig10"),
        PAPER_ROSTER,
        never_calls="gpu.replay",
    ),
    # Read-dominated power-law gathers (87-97% reads) over footprints far
    # larger than the metadata caches: fills, metadata-cache walks, value
    # verification and BMT verification carry the time.
    "replay-reads": Workload(
        _REPLAY_EXPERIMENTS,
        ("bfs", "spmv", "sssp", "color"),
        never_calls="workloads.study",
    ),
    # The same engines on write-heavy kernels (52-72% reads, 12-pass
    # counter warmup on three of four): warmup, writebacks, counter and
    # tree-leaf updates carry the time.
    "replay-writes": Workload(
        _REPLAY_EXPERIMENTS,
        ("lbm", "histo", "srad", "backprop"),
        never_calls="workloads.study",
    ),
}
