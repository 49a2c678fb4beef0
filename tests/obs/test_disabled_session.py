"""A disabled session collects nothing.

No instrument has a no-op twin: a disabled session holds a real, empty
registry and profiler, and every write site checks ``enabled`` (or
``span_detail``) before it writes. These runs pass through the replay
loop, the engines, the disk cache's corruption path, the fault campaign
and the supervisor.
"""

from repro.faults import CampaignSpec, FaultKind, run_campaign
from repro.harness.runner import ExperimentContext
from repro.obs import DISABLED_SESSION, active
from repro.resilience import RetryPolicy, Supervisor


def assert_empty(session):
    assert not session.enabled
    assert len(session.registry) == 0
    assert session.profiler.recorded == 0
    assert session.profiler.stats() == {}
    assert session.profiler.open_spans() == []


def test_default_session_collects_nothing(tmp_path):
    assert active() is DISABLED_SESSION
    cache_dir = tmp_path / "cache"

    first = ExperimentContext(
        trace_length=400, benchmarks=["bfs"], cache_dir=str(cache_dir)
    )
    first.run("bfs", "plutus")

    # A corrupt entry is a counted miss, never a metric.
    (entry,) = cache_dir.glob("trace-*.txt")
    entry.write_text(entry.read_text()[:-5])
    second = ExperimentContext(
        trace_length=400, benchmarks=["bfs"], cache_dir=str(cache_dir)
    )
    second.run("bfs", "plutus")
    assert second.disk_cache.corrupt_entries == 1

    spec = CampaignSpec(
        name="tiny", kinds=(FaultKind.BITFLIP,),
        engines=("functional", "pssm"), trials_per_kind=1,
    )
    supervisor = Supervisor(
        policy=RetryPolicy(base_delay_s=0.0, jitter=0.0),
        sleep=lambda _t: None,
    )
    report = run_campaign(spec, supervisor=supervisor)
    assert report.supervision.ok
    assert report.ok
    assert len(report.supervision.outcomes) == 2

    for session in (DISABLED_SESSION, first.obs_session, second.obs_session):
        assert_empty(session)
