"""Property tests (hypothesis): the columnar core is exactly lossless.

Two identities the refactor rests on:

* ``from_columns(to_columns(log))`` reproduces any event log exactly;
* the lazy ``events`` view is element-wise equal to a materialized
  list of the same events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.columnar import EventKind, EventView, MemoryEvent
from repro.gpu.simulator import MemoryEventLog


@st.composite
def memory_events(draw):
    kind = draw(st.sampled_from((EventKind.FILL, EventKind.WRITEBACK)))
    partition = draw(st.integers(min_value=0, max_value=7))
    sector = draw(st.integers(min_value=0, max_value=2**40))
    values = draw(
        st.none() | st.binary(min_size=32, max_size=32)
        | st.binary(min_size=1, max_size=48)
    )
    return MemoryEvent(kind, partition, sector, values)


event_lists = st.lists(memory_events(), min_size=0, max_size=60)


def _log(events):
    return MemoryEventLog(
        trace_name="prop",
        memory_intensity=0.5,
        instructions=1,
        events=list(events),
        fill_sectors=sum(e.kind is EventKind.FILL for e in events),
        writeback_sectors=sum(
            e.kind is EventKind.WRITEBACK for e in events
        ),
    )


@settings(max_examples=60, deadline=None)
@given(events=event_lists)
def test_columns_roundtrip_is_exact(events):
    log = _log(events)
    rebuilt = MemoryEventLog.from_columns(
        log.to_columns(),
        trace_name=log.trace_name,
        memory_intensity=log.memory_intensity,
        instructions=log.instructions,
        counter_warmup_passes=log.counter_warmup_passes,
    )
    assert list(rebuilt.events) == events
    assert rebuilt.events == log.events
    assert rebuilt.fill_sectors == log.fill_sectors
    assert rebuilt.writeback_sectors == log.writeback_sectors


@settings(max_examples=60, deadline=None)
@given(events=event_lists)
def test_lazy_view_equals_materialized_list(events):
    view = EventView()
    view.extend(events)
    materialized = list(view)
    assert len(materialized) == len(events)
    assert all(a == b for a, b in zip(materialized, events))
    assert view == events
    assert view[:] == events
    for index in range(len(events)):
        assert view[index] == events[index]
