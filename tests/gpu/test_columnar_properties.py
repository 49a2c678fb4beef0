"""Property tests (hypothesis): the columnar core is exactly lossless.

Two identities the event log rests on:

* events read back lazily from the columns (``iter_events``) equal the
  events the log was built from, and the log's fill/writeback counts
  match them; a value that is not a 32-byte sector image is refused;
* a dump-and-reload reproduces the events, the counts and the text.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.columnar import EventColumns, EventKind, MemoryEvent
from repro.gpu.simulator import MemoryEventLog
from repro.workloads.traceio import dumps_event_log, loads_event_log


@st.composite
def memory_events(draw, values=None):
    kind = draw(st.sampled_from((EventKind.FILL, EventKind.WRITEBACK)))
    partition = draw(st.integers(min_value=0, max_value=7))
    sector = draw(st.integers(min_value=0, max_value=2**40))
    if values is None:
        values = (
            st.none() | st.binary(min_size=32, max_size=32)
            | st.binary(min_size=1, max_size=48)
        )
    return MemoryEvent(kind, partition, sector, draw(values))


event_lists = st.lists(memory_events(), min_size=0, max_size=60)
sector_event_lists = st.lists(
    memory_events(st.none() | st.binary(min_size=32, max_size=32)),
    min_size=0, max_size=60,
)


def _log(events):
    return MemoryEventLog(
        trace_name="prop", memory_intensity=0.5, instructions=1,
        events=EventColumns.from_events(events),
    )


@settings(max_examples=60, deadline=None)
@given(events=sector_event_lists)
def test_columns_roundtrip_is_exact(events):
    log = _log(events)
    text = dumps_event_log(log)
    rebuilt = loads_event_log(text)
    assert list(rebuilt.events.iter_events()) == events
    assert rebuilt.fill_sectors == log.fill_sectors
    assert rebuilt.writeback_sectors == log.writeback_sectors
    assert dumps_event_log(rebuilt) == text


@settings(max_examples=60, deadline=None)
@given(events=event_lists)
@example(events=[MemoryEvent(EventKind.FILL, 0, 1, b"xy")])
def test_lazy_view_equals_materialized_list(events):
    if any(e.values is not None and len(e.values) != 32 for e in events):
        with pytest.raises(ValueError, match="32 bytes"):
            _log(events)
        return
    log = _log(events)
    assert len(log.events) == len(events)
    assert list(log.events.iter_events()) == events
    assert log.fill_sectors == sum(e.kind is EventKind.FILL for e in events)
    assert log.writeback_sectors == len(events) - log.fill_sectors
