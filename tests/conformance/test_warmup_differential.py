"""Plutus warmup in bulk against the pass-major per-event loop.

``PlutusEngine.warm_counters_batch`` applies per-sector write totals to
both counter layers at once unless a minor counter can overflow. The
reference is what the warmup contract defines: ``passes`` rounds over
the sector list, each write one ``increment_fast`` and one
``plan_write_code``, with ``force_original`` on every minor overflow.
Both must leave the same ``state_digest()``.

Pre-states are the hard part. Compact state comes from
``plan_write_code`` history (saturated sectors, counted blocks and, in
adaptive designs, disabled blocks), and ``force_original`` then redirects
some sectors that are still below saturation, as a minor overflow
during replay would. A forced sector's crossing and a crossing in a
disabled block must not count toward the block; an adaptive block stops
counting at ``disable_threshold``.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.gpu.config import VOLTA
from repro.mem.traffic import TrafficCounter
from repro.metadata.compact import (
    DESIGN_2BIT,
    DESIGN_3BIT,
    DESIGN_3BIT_ADAPTIVE,
    CompactCounterConfig,
)
from repro.secure.plutus import PlutusEngine

PARTITION = 3

DESIGNS = (
    DESIGN_2BIT,
    DESIGN_3BIT,
    DESIGN_3BIT_ADAPTIVE,
    CompactCounterConfig(width_bits=3, counters_per_block=64, adaptive=True,
                         disable_threshold=1),
    CompactCounterConfig(width_bits=3, counters_per_block=64, adaptive=True,
                         disable_threshold=3),
)


def pass_major(engine, sectors, passes):
    """The warmup contract, one write at a time."""
    increment = engine.counters.increment_fast
    plan_write = engine.compact.plan_write_code
    force = engine.compact.force_original
    for _ in range(passes):
        for s in sectors:
            affected = increment(s)
            plan_write(s)
            if affected is not None:
                force(affected)


def build(config, history, forced, near_overflow):
    """A Plutus engine whose counter layers carry the drawn pre-state."""
    engine = PlutusEngine(PARTITION, VOLTA.sectors_per_partition,
                          TrafficCounter(), compact_config=config)
    compact = engine.compact
    for s, count in history:
        for _ in range(count):
            compact.plan_write_code(s)
    sat = config.saturation_value
    compact.force_original(
        [s for s in forced if compact.write_count(s) < sat]
    )
    limit = engine.counters.config.minor_limit
    for s in near_overflow:
        engine.counters.load(s, 0, limit - 1)
    return engine


@st.composite
def warmups(draw):
    """(design, history, forced, near-overflow sectors, batch, passes).

    Sectors come from a window of up to two compact blocks, often
    straddling a boundary, so one batch crosses saturation in several
    sectors of one block.
    """
    config = draw(st.sampled_from(DESIGNS))
    per_block = config.counters_per_block
    base = draw(st.integers(min_value=0, max_value=3)) * per_block
    base += draw(st.integers(min_value=0, max_value=per_block - 1))
    span = draw(st.integers(min_value=1, max_value=2 * per_block))
    sector = st.integers(min_value=base, max_value=base + span - 1)
    history = draw(st.lists(
        st.tuples(sector, st.integers(min_value=0,
                                      max_value=2 * config.saturation_value)),
        max_size=3 * config.disable_threshold + 12,
    ))
    forced = draw(st.lists(sector, max_size=12))
    batch = draw(st.lists(sector, min_size=1, max_size=48))
    # One case in five pushes a batch sector's minor to the brink.
    near_overflow = batch[:1] if draw(st.integers(0, 4)) == 0 else []
    passes = draw(st.integers(min_value=1, max_value=12))
    return config, history, forced, near_overflow, batch, passes


@settings(max_examples=400, deadline=None)
@given(case=warmups())
def test_bulk_warmup_matches_pass_major_loop(case):
    config, history, forced, near_overflow, batch, passes = case
    bulk = build(config, history, forced, near_overflow)
    ref = build(config, history, forced, near_overflow)
    assert bulk.state_digest() == ref.state_digest()
    event(f"pre-state has disabled blocks: {ref.compact.disable_events > 0}")
    bulk.warm_counters_batch(np.asarray(batch, dtype=np.int64), passes)
    pass_major(ref, batch, passes)
    event(f"minor overflow: {ref.counters.overflow_events > 0}")
    assert bulk.compact.state_summary() == ref.compact.state_summary()
    assert bulk.state_digest() == ref.state_digest()


def test_minor_overflow_falls_back_to_pass_major():
    """A minor that overflows forces its group to the originals mid-warmup,
    so the later writes of the group's other sectors in the same pass no
    longer count their saturation crossings."""
    config = DESIGN_3BIT_ADAPTIVE
    batch = [0, 1, 2, 3]
    bulk = build(config, [], [], [0])
    ref = build(config, [], [], [0])
    bulk.warm_counters_batch(np.asarray(batch, dtype=np.int64), 9)
    pass_major(ref, batch, 9)
    assert ref.counters.overflow_events == 1
    assert ref.compact.propagation_events == 0
    assert bulk.state_digest() == ref.state_digest()


def test_crossings_past_threshold_disable_once():
    """Ten sectors of one block cross saturation in one bulk warmup: the
    adaptive block counts eight crossings, disables, and ignores the
    rest."""
    bulk = build(DESIGN_3BIT_ADAPTIVE, [], [], [])
    ref = build(DESIGN_3BIT_ADAPTIVE, [], [], [])
    batch = list(range(10))
    bulk.warm_counters_batch(np.asarray(batch, dtype=np.int64), 7)
    pass_major(ref, batch, 7)
    assert ref.compact.propagation_events == 8
    assert ref.compact.disable_events == 1
    assert bulk.state_digest() == ref.state_digest()
