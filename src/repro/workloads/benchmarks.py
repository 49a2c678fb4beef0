"""Benchmark profiles standing in for the paper's workload suites.

The paper evaluates Rodinia-3.1, Parboil, LonestarGPU-2.0 and Pannotia
binaries under GPGPU-Sim; the reproduction cannot run those, so each
benchmark is replaced by a calibrated synthetic profile capturing the
properties the Plutus mechanisms key off:

* address behaviour (streaming / strided / stencil / tiled / power-law
  irregular) and footprint — drives L2 and metadata-cache locality;
* read/write mix (paper Fig. 10) — drives counter and MAC write traffic;
* value locality (paper Fig. 9) — drives the value cache;
* memory intensity class (high > 50% of DRAM bandwidth, medium > 20%) —
  drives the traffic -> IPC mapping.

Profiles are deliberately *behavioural*, not trace-accurate: the claim
checked in EXPERIMENTS.md is that the same mechanisms produce the same
relative wins on workloads with these properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream
from repro.workloads.patterns import generate
from repro.workloads.trace import SECTOR_COUNTS, Trace
from repro.workloads.values import ValueModel, ValueModelConfig


@dataclass(frozen=True)
class PatternSpec:
    """A named pattern with its parameters, region size, and mix weight.

    A kernel iteration typically touches several arrays at once (offset
    array streamed, neighbour array gathered, status array scattered);
    profiles therefore carry a *tuple* of weighted specs whose streams
    are interleaved proportionally.
    """

    kind: str
    region_lines: int
    weight: float = 1.0
    params: Mapping[str, float] = field(default_factory=dict)
    #: For write patterns: overlay this read pattern's region instead of
    #: a private one (read-modify-write arrays — graph status/rank
    #: vectors, in-place matrix updates). ``None`` keeps writes disjoint
    #: (double-buffered outputs).
    overlap_read_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError("pattern weight must be positive")


@dataclass(frozen=True)
class BenchmarkProfile:
    """Everything needed to synthesize one benchmark's trace."""

    name: str
    suite: str
    description: str
    intensity_class: str  # "high" or "medium"
    memory_intensity: float
    read_fraction: float
    read_patterns: Tuple[PatternSpec, ...]
    write_patterns: Tuple[PatternSpec, ...]
    values: ValueModelConfig
    default_length: int = 120_000
    #: Execution history before the simulated window, in units of "times
    #: the window's writeback set was written before". Iterative kernels
    #: (stencils, LBM, training sweeps) rewrite their arrays every
    #: iteration, so their pre-window counters are deep; single-pass
    #: kernels are shallow. Drives compact-counter saturation dynamics.
    counter_warmup_passes: int = 3

    def __post_init__(self) -> None:
        if self.intensity_class not in ("high", "medium"):
            raise ConfigurationError("intensity class must be high or medium")
        if not 0.0 < self.read_fraction <= 1.0:
            raise ConfigurationError("read fraction must be in (0, 1]")
        if not self.read_patterns or not self.write_patterns:
            raise ConfigurationError("profiles need read and write patterns")


def _p(kind: str, region_lines: int, weight: float = 1.0,
       overlap: Optional[int] = None, **params) -> PatternSpec:
    return PatternSpec(kind=kind, region_lines=region_lines, weight=weight,
                       params=params, overlap_read_index=overlap)


_KLINES = 1024  # lines per "K" of footprint shorthand (128 KiB)


#: The benchmark roster. Footprints are in 128 B lines; value configs are
#: calibrated so the Fig. 9 reuse study lands near the paper's levels,
#: and pattern mixes so PSSM's metadata overhead lands in the paper's
#: Fig. 6/7 range (worst for irregular graph kernels). Write regions of
#: iterative kernels are sized so *writes per sector over the trace
#: window* match the many-iteration behaviour of the full 2B-instruction
#: runs (counters must actually advance for the compact-counter
#: saturation dynamics of Fig. 17 to appear).
BENCHMARKS: Dict[str, BenchmarkProfile] = {}


def _register(profile: BenchmarkProfile) -> None:
    if profile.name in BENCHMARKS:
        raise ConfigurationError(f"duplicate benchmark {profile.name}")
    BENCHMARKS[profile.name] = profile


_register(BenchmarkProfile(
    name="backprop", suite="rodinia",
    description="Neural-net training sweep: streaming weight reads, "
                "streaming delta writes, strongly repeated float values.",
    intensity_class="medium", memory_intensity=0.60, read_fraction=0.72,
    counter_warmup_passes=12,
    read_patterns=(_p("stream", 56 * _KLINES),),
    write_patterns=(_p("stream", 4 * _KLINES),),
    values=ValueModelConfig(sector_reuse=0.72, value_reuse=0.25,
                            near_perturb=0.35, pool_size=160),
))

_register(BenchmarkProfile(
    name="bfs", suite="rodinia",
    description="Level-synchronous BFS: streamed frontier/offset arrays "
                "plus power-law neighbour gathers, sparse status writes.",
    intensity_class="high", memory_intensity=0.90, read_fraction=0.88,
    read_patterns=(
        _p("stream", 48 * _KLINES, weight=0.50),
        _p("graph", 112 * _KLINES, weight=0.50, skew=0.85),
    ),
    write_patterns=(_p("graph", 48 * _KLINES, skew=0.9, overlap=1),),
    values=ValueModelConfig(sector_reuse=0.55, value_reuse=0.30,
                            near_perturb=0.40, pool_size=128),
))

_register(BenchmarkProfile(
    name="gaussian", suite="rodinia",
    description="Gaussian elimination: row streams plus long column "
                "strides with single live sectors.",
    intensity_class="high", memory_intensity=0.85, read_fraction=0.80,
    read_patterns=(
        _p("stream", 40 * _KLINES, weight=0.45),
        _p("strided", 96 * _KLINES, weight=0.55, stride=97),
    ),
    write_patterns=(_p("strided", 64 * _KLINES, stride=97, overlap=1),),
    values=ValueModelConfig(sector_reuse=0.42, value_reuse=0.18,
                            near_perturb=0.30, pool_size=192),
))

_register(BenchmarkProfile(
    name="hotspot", suite="rodinia",
    description="Thermal 5-point stencil: row-neighbour reuse, smooth "
                "temperature field with strong near-value locality.",
    intensity_class="medium", memory_intensity=0.62, read_fraction=0.84,
    counter_warmup_passes=12,
    read_patterns=(_p("stencil", 72 * _KLINES, row_lines=256),),
    write_patterns=(_p("stream", 2 * _KLINES),),
    values=ValueModelConfig(sector_reuse=0.60, value_reuse=0.25,
                            near_perturb=0.55, pool_size=160),
))

_register(BenchmarkProfile(
    name="kmeans", suite="rodinia",
    description="K-means assignment: streaming point reads against hot "
                "centroids, rare membership writes.",
    intensity_class="high", memory_intensity=0.88, read_fraction=0.95,
    read_patterns=(
        _p("stream", 80 * _KLINES, weight=0.85),
        _p("tiled", 8 * _KLINES, weight=0.15, tile_lines=64),
    ),
    write_patterns=(_p("stream", 16 * _KLINES),),
    values=ValueModelConfig(sector_reuse=0.70, value_reuse=0.30,
                            near_perturb=0.40, pool_size=224),
))

_register(BenchmarkProfile(
    name="pathfinder", suite="rodinia",
    description="Dynamic-programming wavefront: streaming row reads and "
                "writes with small integer values.",
    intensity_class="medium", memory_intensity=0.58, read_fraction=0.78,
    counter_warmup_passes=12,
    read_patterns=(_p("stream", 64 * _KLINES),),
    write_patterns=(_p("stream", 3 * _KLINES, overlap=0),),
    values=ValueModelConfig(sector_reuse=0.66, value_reuse=0.30,
                            near_perturb=0.50, pool_size=128),
))

_register(BenchmarkProfile(
    name="srad", suite="rodinia",
    description="Speckle-reducing anisotropic diffusion: stencil reads, "
                "full-image writes each iteration.",
    intensity_class="medium", memory_intensity=0.65, read_fraction=0.70,
    counter_warmup_passes=12,
    read_patterns=(_p("stencil", 80 * _KLINES, row_lines=192),),
    write_patterns=(_p("stream", 4 * _KLINES, overlap=0),),
    values=ValueModelConfig(sector_reuse=0.60, value_reuse=0.25,
                            near_perturb=0.50, pool_size=192),
))

_register(BenchmarkProfile(
    name="lbm", suite="parboil",
    description="Lattice-Boltzmann: the write-heaviest workload — "
                "streaming reads and writes of large lattices.",
    intensity_class="high", memory_intensity=0.92, read_fraction=0.52,
    counter_warmup_passes=12,
    read_patterns=(_p("stream", 96 * _KLINES),),
    write_patterns=(_p("stream", 6 * _KLINES),),
    values=ValueModelConfig(sector_reuse=0.56, value_reuse=0.22,
                            near_perturb=0.40, pool_size=192),
))

_register(BenchmarkProfile(
    name="spmv", suite="parboil",
    description="Sparse matrix-vector multiply: streamed row pointers "
                "and values, irregular gathers through the x vector.",
    intensity_class="high", memory_intensity=0.90, read_fraction=0.97,
    counter_warmup_passes=8,
    read_patterns=(
        _p("stream", 64 * _KLINES, weight=0.55),
        _p("graph", 96 * _KLINES, weight=0.45, skew=0.95),
    ),
    write_patterns=(_p("stream", 24 * _KLINES),),
    values=ValueModelConfig(sector_reuse=0.62, value_reuse=0.30,
                            near_perturb=0.40, pool_size=192),
))

_register(BenchmarkProfile(
    name="stencil", suite="parboil",
    description="7-point 3-D stencil: plane-neighbour reuse with "
                "streaming output writes.",
    intensity_class="high", memory_intensity=0.86, read_fraction=0.82,
    read_patterns=(_p("stencil", 96 * _KLINES, row_lines=320),),
    write_patterns=(_p("stream", 48 * _KLINES),),
    values=ValueModelConfig(sector_reuse=0.58, value_reuse=0.24,
                            near_perturb=0.50, pool_size=192),
))

_register(BenchmarkProfile(
    name="histo", suite="parboil",
    description="Histogramming: streaming input reads, scattered "
                "read-modify-write bin updates with tiny integer values.",
    intensity_class="medium", memory_intensity=0.60, read_fraction=0.62,
    read_patterns=(_p("stream", 72 * _KLINES),),
    write_patterns=(_p("graph", 48 * _KLINES, skew=0.7, shuffle=False),),
    values=ValueModelConfig(sector_reuse=0.78, value_reuse=0.40,
                            near_perturb=0.55, pool_size=96),
))

_register(BenchmarkProfile(
    name="sssp", suite="lonestargpu",
    description="Single-source shortest paths: worklist streams plus "
                "irregular distance reads/writes across a power-law graph.",
    intensity_class="high", memory_intensity=0.92, read_fraction=0.90,
    read_patterns=(
        _p("stream", 56 * _KLINES, weight=0.40),
        _p("graph", 128 * _KLINES, weight=0.60, skew=0.8),
    ),
    write_patterns=(_p("graph", 64 * _KLINES, skew=0.85, overlap=1),),
    values=ValueModelConfig(sector_reuse=0.50, value_reuse=0.26,
                            near_perturb=0.45, pool_size=128),
))

_register(BenchmarkProfile(
    name="pagerank", suite="pannotia",
    description="PageRank: pull-mode rank gathers over hub-dominated "
                "edge lists; ranks concentrate into few values.",
    intensity_class="high", memory_intensity=0.93, read_fraction=0.94,
    counter_warmup_passes=8,
    read_patterns=(
        _p("stream", 64 * _KLINES, weight=0.45),
        _p("graph", 112 * _KLINES, weight=0.55, skew=0.9),
    ),
    write_patterns=(_p("stream", 48 * _KLINES, overlap=1),),
    values=ValueModelConfig(sector_reuse=0.68, value_reuse=0.32,
                            near_perturb=0.50, pool_size=160),
))

_register(BenchmarkProfile(
    name="color", suite="pannotia",
    description="Graph coloring: irregular neighbour scans with a tiny "
                "palette of color values (extreme value locality).",
    intensity_class="high", memory_intensity=0.89, read_fraction=0.87,
    read_patterns=(
        _p("stream", 40 * _KLINES, weight=0.35),
        _p("graph", 96 * _KLINES, weight=0.65, skew=0.9),
    ),
    write_patterns=(_p("graph", 48 * _KLINES, skew=0.95, overlap=1),),
    values=ValueModelConfig(sector_reuse=0.74, value_reuse=0.45,
                            near_perturb=0.40, pool_size=64),
))


_register(BenchmarkProfile(
    name="nw", suite="rodinia",
    description="Needleman-Wunsch alignment: anti-diagonal wavefront "
                "over a score matrix updated in place.",
    intensity_class="medium", memory_intensity=0.55, read_fraction=0.68,
    read_patterns=(_p("stencil", 64 * _KLINES, row_lines=128),),
    write_patterns=(_p("stream", 3 * _KLINES, overlap=0),),
    values=ValueModelConfig(sector_reuse=0.58, value_reuse=0.28,
                            near_perturb=0.50, pool_size=128),
    counter_warmup_passes=8,
))

_register(BenchmarkProfile(
    name="btree", suite="rodinia",
    description="B+tree search: pointer chasing through inner nodes "
                "(hot, high fan-out) down to scattered leaves.",
    intensity_class="high", memory_intensity=0.84, read_fraction=0.99,
    read_patterns=(
        _p("graph", 16 * _KLINES, weight=0.45, skew=1.3),
        _p("graph", 192 * _KLINES, weight=0.55, skew=0.7),
    ),
    write_patterns=(_p("stream", 4 * _KLINES),),
    values=ValueModelConfig(sector_reuse=0.60, value_reuse=0.30,
                            near_perturb=0.35, pool_size=160),
))

_register(BenchmarkProfile(
    name="mis", suite="pannotia",
    description="Maximal independent set: irregular neighbour scans "
                "with status flags written as vertices settle.",
    intensity_class="high", memory_intensity=0.88, read_fraction=0.85,
    read_patterns=(
        _p("stream", 40 * _KLINES, weight=0.35),
        _p("graph", 112 * _KLINES, weight=0.65, skew=0.85),
    ),
    write_patterns=(_p("graph", 56 * _KLINES, skew=0.9, overlap=1),),
    values=ValueModelConfig(sector_reuse=0.70, value_reuse=0.40,
                            near_perturb=0.40, pool_size=96),
))

_register(BenchmarkProfile(
    name="fw", suite="pannotia",
    description="Floyd-Warshall APSP: dense row/column sweeps with the "
                "distance matrix rewritten every k-iteration.",
    intensity_class="high", memory_intensity=0.87, read_fraction=0.70,
    read_patterns=(
        _p("stream", 72 * _KLINES, weight=0.6),
        _p("strided", 72 * _KLINES, weight=0.4, stride=271),
    ),
    write_patterns=(_p("stream", 5 * _KLINES, overlap=0),),
    values=ValueModelConfig(sector_reuse=0.52, value_reuse=0.24,
                            near_perturb=0.55, pool_size=160),
    counter_warmup_passes=12,
))

_register(BenchmarkProfile(
    name="sgemm", suite="parboil",
    description="Dense matrix multiply: blocked tiles with strong "
                "reuse; compute-bound, memory pressure is moderate.",
    intensity_class="medium", memory_intensity=0.40, read_fraction=0.93,
    read_patterns=(
        _p("tiled", 96 * _KLINES, weight=0.8, tile_lines=96),
        _p("stream", 48 * _KLINES, weight=0.2),
    ),
    write_patterns=(_p("stream", 24 * _KLINES),),
    values=ValueModelConfig(sector_reuse=0.45, value_reuse=0.20,
                            near_perturb=0.35, pool_size=224),
))

_register(BenchmarkProfile(
    name="cutcp", suite="parboil",
    description="Cutoff Coulomb potential: 3-D lattice sweeps with "
                "neighbourhood reuse and accumulating writes.",
    intensity_class="medium", memory_intensity=0.52, read_fraction=0.80,
    read_patterns=(_p("stencil", 80 * _KLINES, row_lines=240),),
    write_patterns=(_p("stream", 6 * _KLINES, overlap=0),),
    values=ValueModelConfig(sector_reuse=0.55, value_reuse=0.26,
                            near_perturb=0.50, pool_size=192),
    counter_warmup_passes=8,
))

#: The 14 benchmarks standing in for the paper's evaluated roster; the
#: registry also carries extension profiles beyond the paper's set.
PAPER_ROSTER = (
    "backprop", "bfs", "gaussian", "hotspot", "kmeans", "pathfinder",
    "srad", "lbm", "spmv", "stencil", "histo", "sssp", "pagerank", "color",
)


def benchmark_names(include_extensions: bool = False) -> List[str]:
    """The benchmark roster.

    By default this is the paper-facing 14 (what every figure runner
    iterates); ``include_extensions=True`` adds the extra profiles the
    reproduction ships beyond the paper's set.
    """
    if include_extensions:
        return list(BENCHMARKS)
    return list(PAPER_ROSTER)


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a registered profile, with a helpful error for typos."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; available: {benchmark_names()}"
        ) from None


def _interleave_writes(length: int, read_fraction: float) -> np.ndarray:
    """Deterministic proportional read/write interleaving."""
    write_fraction = 1.0 - read_fraction
    positions = np.floor(np.arange(1, length + 1) * write_fraction)
    return positions > np.floor(np.arange(length) * write_fraction)


def _layout_regions(
    read_specs: Tuple[PatternSpec, ...],
    write_specs: Tuple[PatternSpec, ...],
) -> Tuple[List[int], List[int], List[int]]:
    """Assign region base lines to every pattern.

    Read regions are laid out consecutively from line 0. A write spec
    either overlays the read region it names (read-modify-write arrays,
    clamped to that region's size) or gets a fresh disjoint region after
    everything placed so far.
    """
    read_bases: List[int] = []
    cursor = 0
    for spec in read_specs:
        read_bases.append(cursor)
        cursor += spec.region_lines
    write_bases: List[int] = []
    write_regions: List[int] = []
    for spec in write_specs:
        if spec.overlap_read_index is not None:
            idx = spec.overlap_read_index
            if not 0 <= idx < len(read_specs):
                raise ConfigurationError(
                    f"overlap index {idx} out of range for read patterns"
                )
            write_bases.append(read_bases[idx])
            write_regions.append(
                min(spec.region_lines, read_specs[idx].region_lines)
            )
        else:
            write_bases.append(cursor)
            write_regions.append(spec.region_lines)
            cursor += spec.region_lines
    return read_bases, write_bases, write_regions


def _generate_mix(
    specs: Tuple[PatternSpec, ...],
    n: int,
    rng: RngStream,
    bases: List[int],
    regions: Optional[List[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate and proportionally interleave a weighted pattern mix.

    Each spec draws over its assigned region; streams are merged in
    fractional-position order so they advance together, as
    concurrently-walked arrays do.
    """
    total_weight = sum(s.weight for s in specs)
    lines_parts: List[np.ndarray] = []
    masks_parts: List[np.ndarray] = []
    pos_parts: List[np.ndarray] = []
    remaining = n
    for i, spec in enumerate(specs):
        n_k = round(n * spec.weight / total_weight) if i < len(specs) - 1 else remaining
        n_k = min(n_k, remaining)
        remaining -= n_k
        if n_k <= 0:
            continue
        region = regions[i] if regions is not None else spec.region_lines
        result = generate(
            spec.kind, n_k, region,
            rng.child(f"mix{i}:{spec.kind}"), **spec.params,
        )
        lines_parts.append(result.line_index + bases[i])
        masks_parts.append(result.sector_mask)
        pos_parts.append((np.arange(n_k) + 0.5) / n_k)
    lines = np.concatenate(lines_parts)
    masks = np.concatenate(masks_parts)
    order = np.argsort(np.concatenate(pos_parts), kind="stable")
    return lines[order], masks[order]


def _merge_draws(is_write: np.ndarray, n_writes: int,
                 write_draws: np.ndarray, read_draws: np.ndarray) -> np.ndarray:
    """Every write position takes the next write draw and every read
    position the next read draw (the write mix draws one even when the
    trace has no write)."""
    merged = np.empty(
        len(is_write), dtype=np.result_type(write_draws, read_draws)
    )
    merged[is_write] = write_draws[:n_writes]
    merged[~is_write] = read_draws
    return merged


def build_trace(
    name: str,
    length: Optional[int] = None,
    seed: int = 2023,
    with_values: bool = True,
) -> Trace:
    """Synthesize a benchmark's access trace.

    ``length`` is the number of coalesced L2 accesses (default from the
    profile); ``seed`` makes the trace fully deterministic;
    ``with_values=False`` omits sector images for experiments that do
    not exercise the value cache (faster, lighter).
    """
    profile = get_profile(name)
    n = profile.default_length if length is None else length
    if n <= 0:
        raise ConfigurationError("trace length must be positive")
    rng = RngStream(seed, f"trace:{name}")

    is_write = _interleave_writes(n, profile.read_fraction)
    n_writes = int(is_write.sum())
    n_reads = n - n_writes

    read_bases, write_bases, write_regions = _layout_regions(
        profile.read_patterns, profile.write_patterns
    )
    read_lines, read_masks = _generate_mix(
        profile.read_patterns, n_reads, rng.child("reads"), bases=read_bases
    )
    write_lines, write_masks = _generate_mix(
        profile.write_patterns, max(n_writes, 1), rng.child("writes"),
        bases=write_bases, regions=write_regions,
    )

    masks = _merge_draws(is_write, n_writes, write_masks, read_masks)
    images = None
    if with_values:
        # All sector images in one vectorized batch, one row per selected
        # sector in trace order. Sectors of one coalesced access share
        # the reuse decision (value locality is line-clustered in real
        # data), so each access is one group.
        group_sizes = SECTOR_COUNTS[masks]
        images = ValueModel(profile.values, rng.child("values")).sector_images(
            int(group_sizes.sum()), group_sizes=group_sizes
        )
    lines = _merge_draws(is_write, n_writes, write_lines, read_lines)

    return Trace.from_columns(
        name,
        lines.astype(np.int64, copy=False) * 128,
        masks.astype(np.uint8, copy=False),
        is_write,
        images,
        memory_intensity=profile.memory_intensity,
        instructions=20 * n,
        counter_warmup_passes=profile.counter_warmup_passes,
    )


def build_all_traces(
    length: Optional[int] = None, seed: int = 2023, with_values: bool = True
) -> Dict[str, Trace]:
    """Build the full roster (the figure harness's workhorse)."""
    return {
        name: build_trace(name, length=length, seed=seed, with_values=with_values)
        for name in BENCHMARKS
    }


def scaled_profile(name: str, **overrides) -> BenchmarkProfile:
    """A copy of a profile with fields replaced (for sensitivity sweeps)."""
    return replace(get_profile(name), **overrides)
