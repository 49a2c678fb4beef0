"""BmtTraversal against a reference walker (hypothesis).

The reference is the tree walk in its plainest form: every node is
addressed through :meth:`BmtGeometry.node_address`, every cache lookup
goes through the generic :meth:`SectoredCache.access`, a dirty eviction
finds its node with :meth:`BmtGeometry.locate`, and ``update_leaves`` is
``update_leaf`` once per leaf. Random operation sequences drive both
sides on their own cache and traffic counter; after every step the
return values, the traffic, the full cache state and the root
verification count must agree.

A lazy walk over a whole-line cache is accepted exactly when the
reference's flush terminates; that rule is checked on its own below.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.bmt import BmtGeometry, BmtTraversal


class ReferenceWalk:
    """Verify, lazy or eager update, and flush over the generic access."""

    def __init__(self, geometry, cache, traffic, lazy_update):
        self.geometry = geometry
        self.cache = cache
        self.traffic = traffic
        self.lazy_update = lazy_update
        self.root_verifications = 0

    def _line_and_mask(self, leaf_index, level):
        cfg = self.cache.config
        addr = self.geometry.node_address(leaf_index, level)
        first_sector = (addr % cfg.line_bytes) // cfg.sector_bytes
        sectors = max(1, self.geometry.node_bytes // cfg.sector_bytes)
        return addr - addr % cfg.line_bytes, ((1 << sectors) - 1) << first_sector

    def _fetched(self, result):
        if result.miss_mask:
            self.traffic.record(
                Stream.BMT_READ,
                result.miss_sector_count * self.cache.config.sector_bytes,
                transactions=result.miss_sector_count,
            )

    def _writeback(self, evictions):
        cfg = self.cache.config
        for ev in evictions:
            self.traffic.record(
                Stream.BMT_WRITE,
                ev.dirty_sector_count * cfg.sector_bytes,
                transactions=ev.dirty_sector_count,
            )
            if not self.lazy_update:
                continue
            seen = set()
            for s in range(cfg.sectors_per_line):
                if not (ev.dirty_mask >> s) & 1:
                    continue
                byte_addr = ev.line_addr + s * cfg.sector_bytes
                node_base = byte_addr - byte_addr % self.geometry.node_bytes
                if node_base in seen:
                    continue
                seen.add(node_base)
                try:
                    level, node = self.geometry.locate(node_base)
                except ValueError:
                    continue
                if level + 1 >= self.geometry.root_level:
                    continue
                self._touch(node * self.geometry.arity**level, level + 1)

    def _touch(self, leaf_index, level):
        line, mask = self._line_and_mask(leaf_index, level)
        result = self.cache.access(line, mask, write=True)
        self._fetched(result)
        self._writeback(result.evictions)

    def verify_leaf(self, leaf_index):
        fetched = 0
        for level in range(1, self.geometry.root_level + 1):
            if level == self.geometry.root_level:
                self.root_verifications += 1
                break
            line, mask = self._line_and_mask(leaf_index, level)
            result = self.cache.access(line, mask, write=False)
            self._fetched(result)
            self._writeback(result.evictions)
            if not result.miss_mask:
                break
            fetched += 1
        return fetched

    def update_leaf(self, leaf_index):
        if self.geometry.root_level == 1:
            return
        if self.lazy_update:
            self.verify_leaf(leaf_index)
            self._touch(leaf_index, 1)
            return
        sector_bytes = self.cache.config.sector_bytes
        sectors = max(1, self.geometry.node_bytes // sector_bytes)
        for level in range(1, self.geometry.root_level):
            self._touch(leaf_index, level)
            self.traffic.record(
                Stream.BMT_WRITE, sectors * sector_bytes, transactions=sectors
            )

    def update_leaves(self, leaf_indices):
        for leaf_index in leaf_indices:
            self.update_leaf(leaf_index)

    def flush(self):
        while True:
            dirty = self.cache.flush()
            if not dirty:
                break
            self._writeback(dirty)


def _side(walker_class, geometry, cache_config, lazy):
    cache = SectoredCache(cache_config)
    traffic = TrafficCounter()
    return walker_class(geometry, cache, traffic, lazy_update=lazy)


def _state(walker):
    return (
        walker.traffic.report(),
        walker.cache.state_summary(),
        walker.root_verifications,
    )


def _call(walker, op, arg):
    try:
        if op == "flush":
            return getattr(walker, op)()
        return getattr(walker, op)(arg)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def walk_cases(draw):
    node_bytes = draw(st.sampled_from((32, 128)))
    arity = node_bytes // 8
    num_leaves = draw(st.integers(min_value=1, max_value=arity**4 + 5))
    # Two to eight lines: small enough that walks and eviction updates
    # evict each other.
    cache_config = CacheConfig(
        name="bmt",
        size_bytes=draw(st.sampled_from((256, 512, 1024))),
        ways=draw(st.sampled_from((1, 2))),
        sectored=draw(st.booleans()),
    )
    lazy = draw(st.booleans())
    # In-range leaves, plus the two nearest out-of-range indices.
    leaves = st.one_of(
        st.integers(min_value=0, max_value=num_leaves - 1),
        st.sampled_from((-1, num_leaves)),
    )
    # Updates fill the cache with dirty nodes, so an update is drawn
    # four times as often as a verify or a flush.
    update = st.tuples(st.just("update_leaf"), leaves)
    update_run = st.tuples(
        st.just("update_leaves"), st.lists(leaves, max_size=12).map(sorted)
    )
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("verify_leaf"), leaves),
            update, update, update_run, update_run,
            st.tuples(st.just("flush"), st.none()),
        ),
        min_size=1,
        max_size=100,
    ))
    geometry = BmtGeometry(num_leaves, arity=arity, node_bytes=node_bytes)
    return geometry, cache_config, lazy, ops


@settings(max_examples=300, deadline=None)
@given(case=walk_cases())
# The second update's verify walk evicts the first update's dirty
# level-1 node, whose eviction dirties its level-2 parent. The second
# update's own dirty touch then evicts that parent, which must in turn
# dirty the level-3 node above it.
@example(case=(
    BmtGeometry(65, arity=4, node_bytes=32),
    CacheConfig(name="bmt", size_bytes=256, ways=1),
    True,
    [("update_leaf", 0), ("update_leaf", 16)],
))
def test_walks_match_reference(case):
    geometry, cache_config, lazy, ops = case
    try:
        fast = _side(BmtTraversal, geometry, cache_config, lazy)
    except ConfigurationError:
        # The reference's flush would never return on this tree; see
        # test_whole_line_lazy_rejected_exactly_when_flush_never_ends.
        assume(False)
    ref = _side(ReferenceWalk, geometry, cache_config, lazy)
    for step, (op, arg) in enumerate(ops):
        got = _call(fast, op, arg)
        want = _call(ref, op, arg)
        assert got == want, (step, op, arg)
        assert _state(fast) == _state(ref), (step, op, arg)


def _flush_rounds(walker, limit):
    """Rounds of the reference flush until the cache is clean, or None."""
    for rounds in range(limit):
        dirty = walker.cache.flush()
        if not dirty:
            return rounds
        walker._writeback(dirty)
    return None


def test_whole_line_lazy_rejected_exactly_when_flush_never_ends():
    """Dirty every node of a 4-ary 32 B tree in a fully associative
    whole-line cache that never evicts. The reference flush terminates
    on exactly the trees BmtTraversal accepts."""
    rejected = set()
    for line_bytes in (128, 256):
        for num_leaves in range(1, 200):
            geometry = BmtGeometry(num_leaves, arity=4, node_bytes=32)
            config = CacheConfig(
                name="bmt", size_bytes=64 * line_bytes,
                line_bytes=line_bytes, ways=64, sectored=False,
            )
            ref = _side(ReferenceWalk, geometry, config, True)
            for leaf in range(num_leaves):
                ref.update_leaf(leaf)
            never_ends = _flush_rounds(ref, limit=64) is None
            try:
                _side(BmtTraversal, geometry, config, True)
            except ConfigurationError:
                rejected.add((line_bytes, num_leaves))
                assert never_ends, (line_bytes, num_leaves)
            else:
                assert not never_ends, (line_bytes, num_leaves)
    # Both verdicts occur at both line sizes.
    assert {line for line, _ in rejected} == {128, 256}
    assert len(rejected) < 2 * 199
