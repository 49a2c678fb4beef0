"""Property-based tests over the security engines (hypothesis).

Random fill/writeback streams through every engine design must never
crash, must account traffic consistently, and must preserve the
cross-engine invariants the experiment methodology depends on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.layout import GranularityDesign
from repro.secure.common_counters import CommonCountersEngine
from repro.secure.engine import NoSecurityEngine
from repro.secure.plutus import PlutusEngine
from repro.secure.pssm import PssmEngine

SECTORS = 1 << 18

ENGINE_FACTORIES = [
    lambda t: NoSecurityEngine(0, SECTORS, t),
    lambda t: PssmEngine(0, SECTORS, t),
    lambda t: CommonCountersEngine(0, SECTORS, t),
    lambda t: PlutusEngine(0, SECTORS, t),
    lambda t: PlutusEngine(0, SECTORS, t, design=GranularityDesign.BLOCK_128,
                           compact_config=None),
]

events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SECTORS - 1),  # sector
        st.booleans(),                                    # is writeback
        st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
    ),
    min_size=1,
    max_size=120,
)


def run_stream(factory, stream):
    traffic = TrafficCounter()
    engine = factory(traffic)
    for sector, is_writeback, values in stream:
        if is_writeback:
            engine.on_writeback_batch([sector], [values])
        else:
            engine.on_fill_batch([sector], [values])
    engine.finalize()
    return engine, traffic.report()


@settings(max_examples=25, deadline=None)
@given(stream=events, index=st.integers(min_value=0,
                                        max_value=len(ENGINE_FACTORIES) - 1))
def test_any_stream_runs_to_completion(stream, index):
    engine, report = run_stream(ENGINE_FACTORIES[index], stream)
    fills = sum(1 for _s, w, _v in stream if not w)
    writebacks = len(stream) - fills
    assert engine.stats.fills == fills
    assert engine.stats.writebacks == writebacks
    assert report.total_bytes >= 0


@settings(max_examples=25, deadline=None)
@given(stream=events)
def test_bytes_always_match_transactions(stream):
    """Every stream's bytes are exactly 32 B per transaction."""
    for factory in ENGINE_FACTORIES:
        _engine, report = run_stream(factory, stream)
        for s in Stream:
            assert report.bytes_by_stream[s] == (
                32 * report.transactions_by_stream[s]
            ), s


@settings(max_examples=25, deadline=None)
@given(stream=events)
def test_engines_are_deterministic(stream):
    for factory in ENGINE_FACTORIES:
        _a, report_a = run_stream(factory, stream)
        _b, report_b = run_stream(factory, stream)
        assert report_a.bytes_by_stream == report_b.bytes_by_stream


@settings(max_examples=25, deadline=None)
@given(stream=events)
def test_plutus_metadata_never_exceeds_pssm_by_much(stream):
    """Plutus may add mirror-layer traffic on pathological streams, but
    it must never blow up unboundedly relative to the baseline."""
    _p, pssm = run_stream(lambda t: PssmEngine(0, SECTORS, t), stream)
    _q, plutus = run_stream(lambda t: PlutusEngine(0, SECTORS, t), stream)
    assert plutus.metadata_bytes <= 2 * pssm.metadata_bytes + 4096


@settings(max_examples=25, deadline=None)
@given(stream=events)
def test_value_rich_streams_cut_mac_traffic(stream):
    """If every event carries the same hot sector image, Plutus must
    avoid at least as many MAC fetches as PSSM performs for them."""
    hot = b"\x42\x00\x00\x10" * 8
    hot_stream = [(s, w, hot) for s, w, _v in stream]
    _p, pssm = run_stream(lambda t: PssmEngine(0, SECTORS, t), hot_stream)
    _q, plutus = run_stream(lambda t: PlutusEngine(0, SECTORS, t), hot_stream)
    assert plutus.mac_bytes <= pssm.mac_bytes
