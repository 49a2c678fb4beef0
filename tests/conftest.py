"""Shared fixtures for the test suite.

Simulation fixtures are session-scoped and deliberately small: tests
assert on mechanisms and invariants, not on calibration magnitudes (the
benchmark harness owns those).
"""

import os

import pytest

from repro.common.rng import RngStream
from repro.gpu.config import VOLTA
from repro.gpu.simulator import replay_events, simulate_l2
from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import TrafficCounter
from repro.workloads.benchmarks import build_trace


@pytest.fixture(scope="session", autouse=True)
def artifact_store(tmp_path_factory):
    """A fresh default disk cache for each session, outside the checkout.

    A context built without ``cache_dir`` would otherwise read and write
    ``.cache/`` in the working directory, and so check traces and event
    logs that an earlier run, and earlier code, wrote. Subprocesses
    inherit the variable; tests of the variable itself set it or delete
    it with ``monkeypatch``.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    store = tmp_path_factory.mktemp("artifact-store")
    os.environ["REPRO_CACHE_DIR"] = str(store)
    yield store
    if previous is None:
        del os.environ["REPRO_CACHE_DIR"]
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def rng():
    return RngStream(seed=1234)


@pytest.fixture
def traffic():
    return TrafficCounter()


@pytest.fixture
def small_cache():
    """A 2 kB metadata-style sectored cache (16 lines, 4-way)."""
    return SectoredCache(CacheConfig(name="test", size_bytes=2048))


@pytest.fixture(scope="session")
def bfs_trace():
    """A small deterministic irregular trace shared across tests."""
    return build_trace("bfs", length=4000, seed=7)


@pytest.fixture(scope="session")
def lbm_trace():
    """A small deterministic write-heavy trace shared across tests."""
    return build_trace("lbm", length=4000, seed=7)


@pytest.fixture(scope="session")
def bfs_log(bfs_trace):
    return simulate_l2(bfs_trace, VOLTA)


@pytest.fixture(scope="session")
def lbm_log(lbm_trace):
    return simulate_l2(lbm_trace, VOLTA)


@pytest.fixture(scope="session")
def engine_results(bfs_log):
    """Replays of the bfs log under the four headline engines."""
    from repro.secure.common_counters import CommonCountersEngine
    from repro.secure.engine import NoSecurityEngine
    from repro.secure.plutus import PlutusEngine
    from repro.secure.pssm import PssmEngine

    return {
        "nosec": replay_events(
            bfs_log, lambda p, s, t: NoSecurityEngine(p, s, t), VOLTA
        ),
        "pssm": replay_events(
            bfs_log, lambda p, s, t: PssmEngine(p, s, t), VOLTA
        ),
        "cc": replay_events(
            bfs_log, lambda p, s, t: CommonCountersEngine(p, s, t), VOLTA
        ),
        "plutus": replay_events(
            bfs_log, lambda p, s, t: PlutusEngine(p, s, t), VOLTA
        ),
    }
