"""Every engine's batch hooks against the recorded scalar oracle.

The engines used to carry per-event scalar hooks beside their batch
hooks. Before the scalar half was deleted, its results on a fixed set of
single-partition traces were recorded (``scalar_oracle.json``; see
:mod:`tests.conformance.oracle`). Here every trace is replayed through
the batch hooks under three cut shapes — maximal runs, single-event
runs and seeded random cuts — and traffic, engine stats and the state
digest must equal the recording, for every engine key.
"""

import pytest

from repro.harness.runner import engine_factories

from .oracle import ORACLE, TRACES, assert_matches_oracle, cut_shapes


def test_oracle_covers_every_trace_and_engine():
    assert set(ORACLE["records"]) == set(TRACES)
    assert set(ORACLE["engines"]) <= set(engine_factories())
    for records in ORACLE["records"].values():
        assert list(records) == ORACLE["engines"]


@pytest.mark.parametrize("key", ORACLE["engines"])
def test_every_cut_shape_matches_the_recording(key):
    for seed, (name, (_partition, _passes, events)) in enumerate(
        TRACES.items()
    ):
        for cuts in cut_shapes(len(events), seed).values():
            assert_matches_oracle(key, name, cuts)
