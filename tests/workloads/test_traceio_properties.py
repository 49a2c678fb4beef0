"""Property-based round-trip tests for trace I/O (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.trace import Trace, TraceAccess
from repro.workloads.traceio import dumps_trace, loads_trace


@st.composite
def trace_accesses(draw):
    """Accesses without images, with one per selected sector, or partly
    imaged: some selected sectors carry one and the rest do not."""
    mask = draw(st.integers(min_value=1, max_value=15))
    line = draw(st.integers(min_value=0, max_value=2**20)) * 128
    write = draw(st.booleans())
    imaged = draw(st.sampled_from(["none", "all", "some"]))
    values = None
    if imaged != "none":
        values = [
            (slot, draw(st.binary(min_size=32, max_size=32)))
            for slot in range(4)
            if (mask >> slot) & 1 and (imaged == "all" or draw(st.booleans()))
        ]
    return TraceAccess(line, mask, write, values)


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(trace_accesses(), min_size=1, max_size=40),
    # Names must be whitespace-free tokens in the text format.
    name=st.sampled_from(["k1", "bfs2", "mytrace", "lbm_slice"]),
    memory_intensity=st.floats(min_value=0.0, max_value=1.0),
    instructions=st.integers(min_value=1, max_value=10**6),
    counter_warmup_passes=st.integers(min_value=0, max_value=20),
)
def test_roundtrip_preserves_trace(records, name, memory_intensity,
                                   instructions, counter_warmup_passes):
    """Records -> columns -> text -> columns -> records. An access whose
    sectors carry no image reads back with ``values`` None."""
    trace = Trace(name, records, memory_intensity, instructions,
                  counter_warmup_passes)
    recovered = loads_trace(dumps_trace(trace))
    assert recovered.name == trace.name
    assert recovered.memory_intensity == trace.memory_intensity
    assert recovered.instructions == trace.instructions
    assert recovered.counter_warmup_passes == trace.counter_warmup_passes
    assert len(recovered) == len(records)
    for a, b, c in zip(records, trace, recovered):
        assert a.line_addr == b.line_addr == c.line_addr
        assert a.sector_mask == b.sector_mask == c.sector_mask
        assert a.write == b.write == c.write
        assert (a.values or None) == b.values == c.values
