"""The recorded scalar oracle and a single-partition batch replay.

``scalar_oracle.json`` holds fixed single-partition traces and, for
every engine key, what the engines' former per-event (scalar) hooks did
with them: traffic by stream, every ``EngineStats`` field, and the final
``state_digest()``. Its header names the commit it was recorded at and
how. The records are data: nothing in the repository regenerates them,
so they stay an oracle independent of the batch hooks they check.
"""

import json
import random
from dataclasses import astuple
from pathlib import Path

import numpy as np

from repro.gpu.config import VOLTA
from repro.harness.runner import engine_factories
from repro.mem.traffic import Stream, TrafficCounter

ORACLE = json.loads(
    Path(__file__).with_name("scalar_oracle.json").read_text()
)

#: Sector images the traces index into (-1 = the event carried none).
_IMAGES = [bytes.fromhex(v) for v in ORACLE["values"]]

#: Recorded traces by name: ``(partition, warmup passes, events)`` with
#: events as ``(is_writeback, sector, image or None)`` tuples.
TRACES = {
    t["name"]: (
        t["partition"],
        t["passes"],
        [(bool(w), s, None if v < 0 else _IMAGES[v]) for w, s, v in t["events"]],
    )
    for t in ORACLE["traces"]
}

_FACTORIES = engine_factories()


def build_engine(key, partition):
    """A fresh engine of design *key* on the Volta partition geometry."""
    traffic = TrafficCounter()
    engine = _FACTORIES[key](partition, VOLTA.sectors_per_partition, traffic)
    return engine, traffic


def replay(key, events, passes, cuts, partition):
    """Replay *events* through one engine's batch hooks; return its record.

    Runs are the maximal same-kind runs, additionally broken before
    every event index in *cuts* (``range(1, n)`` gives single-event
    runs). The record has the oracle's shape: nonzero streams as
    ``[bytes, transactions]``, the ``EngineStats`` fields in order, and
    the state digest.
    """
    engine, traffic = build_engine(key, partition)
    writebacks = [s for w, s, _ in events if w]
    if writebacks and passes:
        engine.warm_counters_batch(
            np.asarray(writebacks, dtype=np.int64), passes
        )
    start = 0
    for end in range(1, len(events) + 1):
        if (end < len(events) and events[end][0] == events[start][0]
                and end not in cuts):
            continue
        run = events[start:end]
        sectors = np.asarray([s for _, s, _ in run], dtype=np.int64)
        values = [v for _, _, v in run]
        if run[0][0]:
            engine.on_writeback_batch(sectors, values)
        else:
            engine.on_fill_batch(sectors, values)
        start = end
    engine.finalize()
    report = traffic.report()
    return {
        "traffic": {
            s.value: [report.bytes_by_stream[s],
                      report.transactions_by_stream[s]]
            for s in Stream
            if report.bytes_by_stream[s] or report.transactions_by_stream[s]
        },
        "stats": list(astuple(engine.stats)),
        "digest": engine.state_digest(),
    }


def cut_shapes(n, seed):
    """The three cut shapes every recorded trace is replayed under."""
    rng = random.Random(seed)
    return {
        "maximal": set(),
        "single": set(range(1, n)),
        "random": {rng.randrange(1, n) for _ in range(n // 4)} if n > 1
        else set(),
    }


def assert_matches_oracle(key, name, cuts):
    """Replay recorded trace *name* under *cuts* and compare with the record."""
    partition, passes, events = TRACES[name]
    got = replay(key, events, passes, cuts, partition)
    want = ORACLE["records"][name][key]
    assert got["traffic"] == want["traffic"], f"{key}/{name}: traffic"
    assert got["stats"] == want["stats"], f"{key}/{name}: engine stats"
    assert got["digest"] == want["digest"], f"{key}/{name}: state digest"
