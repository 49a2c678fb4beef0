"""``SectoredCache`` against a reference kept here (hypothesis).

The cache keeps its resident lines in one map from line address to line
state, and folds an address into a set index only on a miss. The
reference is the structure it replaced: one ``OrderedDict`` per set,
indexed by the digit fold on every operation, with
``access_run_raw(..., count)`` defined as ``count`` calls of ``access``
(the contract the compressed form promises). Random sequences of every
public operation drive both; every return value and the full
``state_summary()`` must agree after each step.
"""

from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.cache import (
    AccessResult,
    CacheConfig,
    CacheStats,
    Eviction,
    SectoredCache,
)

from .test_cache import digit_fold


class ReferenceCache:
    """Per-set ``OrderedDict``s of ``[valid, dirty]`` masks."""

    def __init__(self, config):
        self.config = config
        self.stats = CacheStats()
        self.sets = [OrderedDict() for _ in range(config.num_sets)]

    def _set(self, line_addr):
        index = digit_fold(line_addr, self.config.num_sets,
                           self.config.line_bytes)
        return self.sets[index]

    def _mask(self, sector_mask):
        full = self.config.full_mask
        if not sector_mask & full:
            raise ValueError("sector mask selects no sectors")
        return sector_mask & full if self.config.sectored else full

    def probe(self, line_addr, sector_mask):
        mask = self._mask(sector_mask)
        state = self._set(line_addr).get(line_addr)
        valid = 0 if state is None else state[0]
        return mask & valid, mask & ~valid

    def access(self, line_addr, sector_mask, write=False):
        mask = self._mask(sector_mask)
        self.stats.accesses += 1
        set_ = self._set(line_addr)
        evictions = []
        state = set_.get(line_addr)
        if state is None:
            if len(set_) >= self.config.ways:
                victim_addr, (_valid, dirty) = set_.popitem(last=False)
                self.stats.line_evictions += 1
                if dirty:
                    self.stats.dirty_evictions += 1
                    evictions.append(Eviction(victim_addr, dirty))
            state = set_[line_addr] = [0, 0]
        else:
            set_.move_to_end(line_addr)
        hit, miss = mask & state[0], mask & ~state[0]
        self.stats.sector_hits += bin(hit).count("1")
        self.stats.sector_misses += bin(miss).count("1")
        state[0] |= mask
        if write:
            state[1] |= mask
        return AccessResult(hit, miss, evictions)

    def access_run_raw(self, line_addr, sector_mask, write, count):
        first = self.access(line_addr, sector_mask, write)
        for _ in range(count - 1):
            self.access(line_addr, sector_mask, write)
        return (first.miss_mask, first.miss_sector_count,
                tuple(first.evictions))

    def fill(self, line_addr, sector_mask):
        saved = self.stats.accesses
        result = self.access(line_addr, sector_mask)
        self.stats.accesses = saved
        return result

    def mark_dirty(self, line_addr, sector_mask):
        state = self._set(line_addr).get(line_addr)
        if state is not None:
            state[1] |= sector_mask & state[0]

    def contains(self, line_addr, sector_mask=-1):
        full = self.config.full_mask
        hit, miss = self.probe(line_addr, sector_mask & full or full)
        return miss == 0 and hit != 0

    def invalidate(self, line_addr):
        state = self._set(line_addr).pop(line_addr, None)
        if state is None or not state[1]:
            return None
        return Eviction(line_addr, state[1])

    def flush(self):
        dirty = []
        for set_ in self.sets:
            for addr, (_valid, dirty_mask) in set_.items():
                if dirty_mask:
                    dirty.append(Eviction(addr, dirty_mask))
            set_.clear()
        return dirty

    def resident_lines(self):
        return {
            addr: state[0] for set_ in self.sets for addr, state in set_.items()
        }

    def state_summary(self):
        st_ = self.stats
        return (
            [[(addr, valid, dirty) for addr, (valid, dirty) in set_.items()]
             for set_ in self.sets],
            (st_.accesses, st_.sector_hits, st_.sector_misses,
             st_.line_evictions, st_.dirty_evictions),
        )


#: Set counts: one set, ladder counts (2, 4, 16, 256), digit-loop
#: counts (8, Volta's 96).
SET_COUNTS = (1, 2, 4, 8, 16, 96, 256)
#: Line indices at and around the ladder's 2^64 limit.
HIGH_LINES = (2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1, 2**65 + 3)


@st.composite
def cache_cases(draw):
    sets = draw(st.sampled_from(SET_COUNTS))
    ways = draw(st.sampled_from((1, 2)))
    config = CacheConfig(
        name="oracle",
        size_bytes=sets * ways * 128,
        ways=ways,
        sectored=draw(st.booleans()),
    )
    # A small pool of lines, so that hits, conflicts and evictions all
    # occur: low indices, multiples of the set count, the high ones, and
    # an occasional address inside a line (addresses are opaque).
    index = st.one_of(
        st.integers(min_value=0, max_value=3 * sets + 2),
        st.integers(min_value=0, max_value=7).map(lambda k: k * sets),
        st.sampled_from(HIGH_LINES),
    )
    addr = st.builds(
        lambda i, offset: i * 128 + offset,
        index, st.sampled_from((0, 0, 0, 0, 32)),
    )
    mask = st.integers(min_value=0, max_value=31)
    op = st.one_of(
        st.tuples(st.just("access"), addr, mask, st.booleans()),
        st.tuples(st.just("access"), addr, mask, st.booleans()),
        st.tuples(st.just("access_run_raw"), addr, mask, st.booleans(),
                  st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("access_run_raw"), addr, mask, st.booleans(),
                  st.just(1)),
        st.tuples(st.just("fill"), addr, mask),
        st.tuples(st.just("probe"), addr, mask),
        st.tuples(st.just("contains"), addr, mask),
        st.tuples(st.just("contains"), addr),
        st.tuples(st.just("mark_dirty"), addr, mask),
        st.tuples(st.just("invalidate"), addr),
        st.tuples(st.just("flush")),
    )
    return config, draw(st.lists(op, min_size=1, max_size=80))


def _call(cache, op):
    name, *args = op
    try:
        return getattr(cache, name)(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=400, deadline=None)
@given(case=cache_cases())
# One way per set: the second line evicts the first, which must leave
# the resident map too (a probe of it then misses, and accessing it
# again allocates afresh).
@example(case=(
    CacheConfig(name="oracle", size_bytes=128, ways=1),
    [("access", 0, 1, True), ("access", 128, 1, False),
     ("probe", 0, 1), ("access", 0, 1, False)],
))
# An invalidated line must leave the map: probing it misses.
@example(case=(
    CacheConfig(name="oracle", size_bytes=512, ways=1),
    [("access", 2**64 * 128, 3, True), ("invalidate", 2**64 * 128),
     ("probe", 2**64 * 128, 3), ("mark_dirty", 2**64 * 128, 3),
     ("flush",)],
))
def test_cache_matches_per_set_reference(case):
    config, ops = case
    fast = SectoredCache(config)
    ref = ReferenceCache(config)
    for step, op in enumerate(ops):
        assert _call(fast, op) == _call(ref, op), (step, op)
        assert fast.state_summary() == ref.state_summary(), (step, op)
        assert fast.resident_lines() == ref.resident_lines(), (step, op)
