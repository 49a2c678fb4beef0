"""The crash-point torture harness: coverage, verdicts, supervision.

The tier-1 sweep here uses a deliberately tiny workload (a handful of
benchmark-shaped accesses plus the coverage tail) so the full site ×
mode × op-class matrix runs in seconds; the built-in ``crash`` and
``crash-full`` campaigns are exercised by the CI job and the ``slow``
marker respectively.
"""

import itertools

import pytest

from repro.faults.campaign import Outcome
from repro.faults.crashpoints import (
    CRASH_CAMPAIGNS,
    OP_CLASSES,
    CrashCampaignSpec,
    _record_payload,
    build_crash_ops,
    crash_campaign_spec,
    crash_ops_from_accesses,
    run_crash_campaign,
)
from repro.common.errors import FaultInjectionError
from repro.secure.recoverable import (
    FORMAT_SITE,
    RECOVERY_SITES,
    UPDATE_SITES,
)

TINY = CrashCampaignSpec(
    name="tiny",
    seed=11,
    size_bytes=256,
    num_ops=6,
    hot_sectors=3,
    checkpoint_every=3,
    partial_trials=1,
)

#: A benchmark-shaped access list: folded writes and reads over the
#: tiny footprint (the adapter appends the coverage-guaranteeing tail).
ACCESSES = [(0, True), (32, False), (64, True), (96, True), (0, False)]


def tiny_ops():
    return crash_ops_from_accesses(TINY, ACCESSES)


def payloads(report):
    return [_record_payload(r) for r in report.records]


class TestRegistry:
    def test_builtin_campaigns_resolve(self):
        for name in CRASH_CAMPAIGNS:
            assert crash_campaign_spec(name).name == name

    def test_unknown_campaign_rejected(self):
        with pytest.raises(FaultInjectionError):
            crash_campaign_spec("no-such-campaign")


class TestWorkloadAdapters:
    def test_build_crash_ops_is_seeded(self):
        assert build_crash_ops(TINY) == build_crash_ops(TINY)

    def test_access_adapter_guarantees_op_classes(self):
        ops = tiny_ops()
        kinds = [op[0] for op in ops]
        assert "read" in kinds and "checkpoint" in kinds
        # The tail overflows sector 0's minor counter: enough writes to
        # exceed the 2-bit limit land on one sector back to back.
        tail_writes = [op for op in ops if op[0] == "write" and op[1] == 0]
        assert len(tail_writes) > TINY.counter_config().minor_limit

    def test_access_adapter_read_only_stream_still_covers(self):
        ops = crash_ops_from_accesses(TINY, [(0, False), (32, False)])
        assert any(op[0] == "write" for op in ops)


class TestSweep:
    def test_tiny_sweep_recovers_or_detects_everywhere(self):
        report = run_crash_campaign(TINY, ops=tiny_ops())
        assert report.records, "sweep produced no trials"
        assert report.silent_corruptions == []
        assert set(UPDATE_SITES) <= set(report.sites_covered)
        assert FORMAT_SITE in report.sites_covered
        assert set(RECOVERY_SITES) <= set(report.sites_covered)
        assert set(OP_CLASSES) <= set(report.op_classes_covered)
        assert report.complete
        assert report.supervision.ok
        assert report.ok
        outcomes = {r.outcome for r in report.records}
        assert outcomes <= {Outcome.RECOVERED, Outcome.TORN}

    def test_sweep_is_deterministic(self):
        first = run_crash_campaign(TINY, ops=tiny_ops())
        second = run_crash_campaign(TINY, ops=tiny_ops())
        assert payloads(first) == payloads(second)

    def test_supervised_run_and_resume_are_byte_identical(self, tmp_path):
        # A journaled run cut short by its budget resumes with the
        # shared cursor starting mid-sweep; the records still equal an
        # uninterrupted run's.
        from repro.resilience import ResourceBudget, Supervisor

        ops = tiny_ops()
        uninterrupted = run_crash_campaign(TINY, ops=ops)
        units = len(uninterrupted.supervision.outcomes)

        ticks = itertools.count()
        cut = run_crash_campaign(TINY, ops=ops, supervisor=Supervisor(
            # Every clock read ticks one second; a full run reads the
            # clock about three times per unit.
            budget=ResourceBudget(wall_clock_s=float(3 * units // 2)),
            clock=lambda: float(next(ticks)),
            run_dir=tmp_path,
            run_id="torture",
        ))
        assert cut.supervision.partial
        done = cut.supervision.count("ok")
        assert 2 < done < units

        resumed = run_crash_campaign(TINY, ops=ops, supervisor=Supervisor(
            run_dir=tmp_path, run_id="torture", resume=True,
        ))
        assert not resumed.supervision.partial
        assert resumed.supervision.count("skipped") == done
        assert payloads(resumed) == payloads(uninterrupted)

    def test_cursor_is_rebuilt_after_advancing_raises(self, monkeypatch):
        # An exception while the shared cursor advances can leave its
        # engine part-way through an op; the retried unit must start
        # from a fresh engine, not advance the damaged one further.
        from repro.faults import crashpoints
        from repro.resilience import RetryPolicy, Supervisor

        ops = tiny_ops()
        uninterrupted = run_crash_campaign(TINY, ops=ops)

        state = {"sweeping": False, "in_trial": False, "raised": False}
        real_apply = crashpoints._apply_op
        real_trial = crashpoints.run_crash_trial
        real_build = crashpoints.build_crash_trials

        def build_crash_trials(spec, events):
            # The barrier and reference passes are over: from here on,
            # only the cursor and the trials apply ops.
            state["sweeping"] = True
            return real_build(spec, events)

        def run_crash_trial(*args):
            state["in_trial"] = True
            try:
                return real_trial(*args)
            finally:
                state["in_trial"] = False

        def flaky_apply(engine, op):
            real_apply(engine, op)
            cursor_step = state["sweeping"] and not state["in_trial"]
            if cursor_step and op[0] == "write" and not state["raised"]:
                # The write has landed, but the step never completes.
                state["raised"] = True
                raise OSError("injected fault while the cursor advances")

        monkeypatch.setattr(crashpoints, "build_crash_trials",
                            build_crash_trials)
        monkeypatch.setattr(crashpoints, "run_crash_trial", run_crash_trial)
        monkeypatch.setattr(crashpoints, "_apply_op", flaky_apply)
        report = run_crash_campaign(TINY, ops=ops, supervisor=Supervisor(
            policy=RetryPolicy(base_delay_s=0.0), sleep=lambda _t: None,
        ))
        assert state["raised"]
        attempts = [o.attempts for o in report.supervision.outcomes]
        assert sorted(attempts) == [1] * (len(attempts) - 1) + [2]
        assert payloads(report) == payloads(uninterrupted)

@pytest.mark.slow
def test_full_builtin_sweep_has_no_silent_corruption():
    report = run_crash_campaign(crash_campaign_spec("crash-full"))
    assert report.silent_corruptions == []
    assert report.complete
    assert report.supervision.ok
    assert report.ok
