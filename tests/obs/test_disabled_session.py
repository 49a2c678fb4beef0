"""A disabled session collects nothing.

No instrument has a no-op twin: a disabled session holds a real, empty
registry and profiler, and every write site checks ``enabled`` (or
``span_detail``) before it writes. These runs pass through the replay
loop, the engines, the fault campaign and the supervisor.
"""

from repro.faults import CampaignSpec, FaultKind, run_campaign
from repro.harness.runner import ExperimentContext
from repro.obs import DISABLED_SESSION, active
from repro.resilience import Supervisor


def assert_empty(session):
    assert not session.enabled
    assert len(session.registry) == 0
    assert session.profiler.recorded == 0
    assert session.profiler.stats() == {}
    assert session.profiler.open_spans() == []


def test_default_session_collects_nothing():
    assert active() is DISABLED_SESSION

    ctx = ExperimentContext(trace_length=400, benchmarks=["bfs"])
    ctx.run("bfs", "plutus")

    spec = CampaignSpec(
        name="tiny", kinds=(FaultKind.BITFLIP,),
        engines=("functional", "pssm"), trials_per_kind=1,
    )
    report = run_campaign(spec, supervisor=Supervisor())
    assert report.supervision.ok
    assert report.ok
    assert len(report.supervision.outcomes) == 2

    for session in (DISABLED_SESSION, ctx.obs_session):
        assert_empty(session)
