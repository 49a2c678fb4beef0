"""Unit tests for the columnar (structure-of-arrays) event-log core."""

import pickle

import numpy as np
import pytest

from repro.gpu.columnar import (
    FILL_CODE,
    WRITEBACK_CODE,
    ColumnStore,
    EventKind,
    MemoryEvent,
)

V32 = bytes(range(32))
V32B = bytes(reversed(range(32)))


def _sample_events():
    return [
        MemoryEvent(EventKind.FILL, 0, 5, V32),
        MemoryEvent(EventKind.WRITEBACK, 1, 9, V32B),
        MemoryEvent(EventKind.FILL, 0, 7, None),
        MemoryEvent(EventKind.WRITEBACK, 2, 3, V32),
    ]


def _store(events):
    store = ColumnStore()
    for event in events:
        code = FILL_CODE if event.kind is EventKind.FILL else WRITEBACK_CODE
        store.append(code, event.partition, event.sector_index, event.values)
    return store


class TestColumnStore:
    def test_append_and_event_roundtrip(self):
        events = _sample_events()
        store = _store(events)
        assert len(store) == len(events)
        assert list(store.iter_events()) == events

    def test_snapshot_columns_match_events(self):
        store = _store(_sample_events())
        cols = store.to_columns()
        assert cols.n_events == 4
        assert cols.kind.tolist() == [
            FILL_CODE, WRITEBACK_CODE, FILL_CODE, WRITEBACK_CODE
        ]
        assert cols.partition.tolist() == [0, 1, 0, 2]
        assert cols.sector.tolist() == [5, 9, 7, 3]
        assert cols.fill_count == 2 and cols.writeback_count == 2
        assert cols.value_at(0) == V32
        assert cols.value_at(2) is None

    def test_snapshot_cache_invalidated_by_append(self):
        store = _store(_sample_events())
        first = store.to_columns()
        assert store.to_columns() is first
        store.append(FILL_CODE, 3, 11, V32)
        second = store.to_columns()
        assert second is not first
        assert first.n_events == 4 and second.n_events == 5

    def test_snapshot_survives_later_growth(self):
        store = _store(_sample_events())
        cols = store.to_columns()
        kinds_before = cols.kind.copy()
        for _ in range(64):
            store.append(WRITEBACK_CODE, 0, 1, V32B)
        assert np.array_equal(cols.kind, kinds_before)
        assert cols.value_at(0) == V32

    def test_from_columns_reproduces_store(self):
        # The loader's bulk path: a store extended from a snapshot's
        # decoded columns holds the same events and the same columns.
        store = _store(_sample_events())
        cols = store.to_columns()
        rebuilt = ColumnStore()
        rebuilt.extend_decoded(
            cols.kind.tobytes(), cols.partition, cols.sector,
            np.where(cols.value_offset >= 0, cols.value_length, -1),
            cols.payload,
        )
        assert list(rebuilt.iter_events()) == _sample_events()
        again = rebuilt.to_columns()
        for name in ("kind", "partition", "sector", "value_offset",
                     "value_length"):
            assert np.array_equal(getattr(again, name), getattr(cols, name))
        assert again.payload == cols.payload

    def test_extend_decoded_rejects_payload_mismatch(self):
        store = ColumnStore()
        with pytest.raises(ValueError, match="payload size"):
            store.extend_decoded(
                bytes([FILL_CODE]),
                np.array([0], dtype=np.int32),
                np.array([1], dtype=np.int64),
                np.array([32], dtype=np.int32),
                b"short",
            )

    def test_pickle_roundtrip_drops_nothing(self):
        store = _store(_sample_events())
        store.to_columns()  # populate the snapshot cache
        clone = pickle.loads(pickle.dumps(store))
        assert list(clone.iter_events()) == list(store.iter_events())
        assert clone.to_columns().payload == store.to_columns().payload

    def test_mixed_value_lengths_clear_fixed32(self):
        store = _store(_sample_events())
        assert store.to_columns().fixed32
        store.append(FILL_CODE, 0, 1, b"\x01\x02\x03")
        cols = store.to_columns()
        assert not cols.fixed32
        assert cols.value_at(4) == b"\x01\x02\x03"
        with pytest.raises(ValueError):
            cols.matrix32()


class TestEventColumnsTake:
    def test_take_fixed32_subset(self):
        store = _store(_sample_events())
        cols = store.to_columns()
        sub = cols.take(np.array([3, 0], dtype=np.int64))
        assert sub.n_events == 2
        assert sub.sector.tolist() == [3, 5]
        assert sub.value_at(0) == V32 and sub.value_at(1) == V32
        assert sub.fixed32

    def test_take_preserves_absent_values(self):
        store = _store(_sample_events())
        sub = store.to_columns().take(np.array([2, 1], dtype=np.int64))
        assert sub.value_at(0) is None
        assert sub.value_at(1) == V32B

    def test_take_odd_lengths_fallback(self):
        store = _store(_sample_events())
        store.append(WRITEBACK_CODE, 5, 2, b"xy")
        cols = store.to_columns()
        sub = cols.take(np.array([4, 0, 2], dtype=np.int64))
        assert sub.value_at(0) == b"xy"
        assert sub.value_at(1) == V32
        assert sub.value_at(2) is None

    def test_values_for_is_lazy_and_indexable(self):
        store = _store(_sample_events())
        cols = store.to_columns()
        values = cols.values_for(np.array([0, 2, 1], dtype=np.int64))
        assert len(values) == 3
        assert values[0] == V32 and values[1] is None
        assert list(values) == [V32, None, V32B]
        assert values[0:2] == [V32, None]
