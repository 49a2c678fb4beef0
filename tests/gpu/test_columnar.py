"""Unit tests for the columnar (structure-of-arrays) event log."""

import numpy as np
import pytest

from repro.gpu.columnar import (
    FILL_CODE,
    WRITEBACK_CODE,
    EventColumns,
    EventKind,
    MemoryEvent,
)
from repro.gpu.config import VOLTA
from repro.gpu.simulator import MemoryEventLog, simulate_l2
from repro.workloads.benchmarks import build_trace
from repro.workloads.traceio import dumps_event_log, loads_event_log

V32 = bytes(range(32))
V32B = bytes(reversed(range(32)))


def _sample_events():
    return [
        MemoryEvent(EventKind.FILL, 0, 5, V32),
        MemoryEvent(EventKind.WRITEBACK, 1, 9, V32B),
        MemoryEvent(EventKind.FILL, 0, 7, None),
        MemoryEvent(EventKind.WRITEBACK, 2, 3, V32),
    ]


class TestEventColumns:
    def test_from_events_roundtrip(self):
        events = _sample_events()
        cols = EventColumns.from_events(events)
        assert len(cols) == len(events)
        assert list(cols.iter_events()) == events

    def test_columns_match_events(self):
        cols = EventColumns.from_events(_sample_events())
        assert cols.kind.tolist() == [
            FILL_CODE, WRITEBACK_CODE, FILL_CODE, WRITEBACK_CODE
        ]
        assert cols.partition.tolist() == [0, 1, 0, 2]
        assert cols.sector.tolist() == [5, 9, 7, 3]
        assert cols.present.tolist() == [True, True, False, True]
        assert cols.images.shape == (4, 8)
        assert cols.images[0].tobytes() == V32
        assert cols.images[1].tobytes() == V32B
        assert not cols.images[2].any()  # a zero row where no image

    def test_empty_log(self):
        log = MemoryEventLog(trace_name="e", memory_intensity=0.5,
                             instructions=1)
        assert len(log.events) == 0 and not log.events
        assert list(log.events.iter_events()) == []
        assert log.events.images.shape == (0, 8)
        assert log.fill_sectors == log.writeback_sectors == 0

    def test_log_counts_read_the_kind_column(self):
        log = MemoryEventLog(trace_name="c", memory_intensity=0.5,
                             instructions=1,
                             events=EventColumns.from_events(_sample_events()))
        assert (log.fill_sectors, log.writeback_sectors) == (2, 2)


def _simulated_log():
    return simulate_l2(build_trace("bfs", length=200, seed=1), VOLTA)


#: Every way a log's columns are built.
PRODUCERS = {
    "from_events": lambda: EventColumns.from_events(_sample_events()),
    "simulate_l2": lambda: _simulated_log().events,
    "load_event_log": lambda: loads_event_log(
        dumps_event_log(_simulated_log())
    ).events,
}


@pytest.mark.parametrize("producer", list(PRODUCERS))
def test_writing_into_a_log_raises(producer):
    """The columns are read-only, so nothing can change a log in place."""
    cols = PRODUCERS[producer]()
    assert len(cols) > 0
    for column in (cols.kind, cols.partition, cols.sector, cols.present):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        cols.images[0, 0] = 7
    with pytest.raises(ValueError, match="read-only"):
        cols.images[:] = 0


class TestEventColumnsTake:
    """Taking selected rows' values out of a log (``values_for``)."""

    def test_values_for_is_lazy_and_indexable(self):
        cols = EventColumns.from_events(_sample_events())
        values = cols.values_for(np.array([0, 2, 1], dtype=np.int64))
        assert len(values) == 3
        assert values[0] == V32 and values[1] is None
        assert list(values) == [V32, None, V32B]
        assert values[0:2] == [V32, None]

    @pytest.mark.parametrize("mask", [0xFFFFFFFF, 0xFFFFF000])
    def test_masked_u32_rows_with_image_less_rows(self, mask):
        cols = EventColumns.from_events(_sample_events())

        def expected(image):
            if image is None:
                return None
            return [int.from_bytes(image[i:i + 4], "little") & mask
                    for i in range(0, 32, 4)]

        for rows in ([2, 0, 3], [0, 1, 3], [2], []):
            picked = np.array(rows, dtype=np.int64)
            images = [_sample_events()[row].values for row in rows]
            assert cols.values_for(picked).masked_u32_rows(mask) == [
                expected(image) for image in images
            ]
