"""``build_trace``'s bulk assembly against the per-access loop it replaced.

The reference below is that loop, kept here as the oracle: it walks the
trace one position at a time, takes the next write or read draw, builds
the group sizes in a first pass and the access records in a second,
cutting each sector's 32-byte image from the ``ValueModel`` matrix by
row. It is driven by the same ``_interleave_writes``,
``_layout_regions``, ``_generate_mix`` and ``ValueModel`` draws as
``build_trace``, so the comparison is a differential within one numpy,
not a pinned digest: ``Generator`` streams may differ between numpy
versions, the assembly must not. The built trace is read back through
its records, so the comparison also covers the record view over the
columns.
"""

import pytest

from repro.common.rng import RngStream
from repro.workloads.benchmarks import (
    BENCHMARKS,
    _generate_mix,
    _interleave_writes,
    _layout_regions,
    build_trace,
    get_profile,
)
from repro.workloads.trace import TraceAccess
from repro.workloads.values import ValueModel

_POPCOUNT4 = [bin(m).count("1") for m in range(16)]
LENGTHS = (1, 7, 200, 2000)
SEEDS = (2023, 7)


def reference_trace(name, length, seed, with_values):
    """The per-access assembly loop, over ``build_trace``'s draws: the
    access records and the profile facts, as :func:`fields` lists them."""
    profile = get_profile(name)
    n = length
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

    value_model = (
        ValueModel(profile.values, rng.child("values")) if with_values else None
    )

    group_sizes = []
    ri, wi = 0, 0
    for i in range(n):
        if is_write[i] and wi < len(write_lines):
            group_sizes.append(_POPCOUNT4[int(write_masks[wi])])
            wi += 1
        else:
            group_sizes.append(_POPCOUNT4[int(read_masks[ri % max(n_reads, 1)])])
            ri += 1
    total_sectors = sum(group_sizes)
    # One row of eight little-endian uint32 values per sector image.
    images = (
        value_model.sector_images(total_sectors, group_sizes=group_sizes)
        if value_model
        else None
    )
    image_cursor = 0

    accesses = []
    read_i = 0
    write_i = 0
    for i in range(n):
        if is_write[i] and write_i < len(write_lines):
            line = int(write_lines[write_i])
            mask = int(write_masks[write_i])
            write_i += 1
            w = True
        else:
            line = int(read_lines[read_i % max(n_reads, 1)])
            mask = int(read_masks[read_i % max(n_reads, 1)])
            read_i += 1
            w = False
        values = None
        if images is not None:
            values = []
            for slot in range(4):
                if (mask >> slot) & 1:
                    values.append((slot, images[image_cursor].tobytes()))
                    image_cursor += 1
        accesses.append(TraceAccess(line * 128, mask, w, values))

    return (
        [(a.line_addr, a.sector_mask, a.write, a.values) for a in accesses],
        name,
        20 * n,
        profile.counter_warmup_passes,
        profile.memory_intensity,
    )


def fields(trace):
    """Everything a trace carries, as plain comparable values."""
    return (
        [(a.line_addr, a.sector_mask, a.write, a.values) for a in trace],
        trace.name,
        trace.instructions,
        trace.counter_warmup_passes,
        trace.memory_intensity,
    )


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_bulk_assembly_matches_per_access_loop(name):
    """All 20 profiles (14 paper, 6 extensions), at every length, seed
    and value setting: line addresses, masks, write flags, sector images,
    instructions and warmup depth."""
    for length in LENGTHS:
        for seed in SEEDS:
            for with_values in (True, False):
                built = build_trace(name, length=length, seed=seed,
                                    with_values=with_values)
                expected = reference_trace(name, length, seed, with_values)
                assert fields(built) == expected, (
                    name, length, seed, with_values
                )
