"""Resource budgets: the wall-clock, RSS, and unit-timeout guards."""

import time

import pytest

from repro.common.errors import ResilienceError, UnitTimeoutError
from repro.resilience import (
    REASON_RSS,
    REASON_WALL_CLOCK,
    BudgetGuard,
    ResourceBudget,
)


class FakeClock:
    """An injectable monotonic clock tests can advance by hand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestResourceBudget:
    def test_default_is_unbounded(self):
        assert ResourceBudget().unbounded

    def test_any_bound_clears_unbounded(self):
        assert not ResourceBudget(wall_clock_s=1.0).unbounded
        assert not ResourceBudget(max_rss_mb=64.0).unbounded

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wall_clock_s": 0.0},
            {"unit_timeout_s": -1.0},
            {"max_rss_mb": 0.0},
        ],
    )
    def test_nonpositive_bounds_rejected(self, kwargs):
        with pytest.raises(ResilienceError, match="must be positive"):
            ResourceBudget(**kwargs)


class TestWallClockGuard:
    def test_not_exceeded_before_deadline(self):
        clock = FakeClock()
        guard = BudgetGuard(ResourceBudget(wall_clock_s=10.0), clock=clock)
        guard.start()
        clock.now += 9.9
        assert guard.exceeded() is None

    def test_exceeded_returns_stable_reason(self):
        clock = FakeClock()
        guard = BudgetGuard(ResourceBudget(wall_clock_s=10.0), clock=clock)
        guard.start()
        clock.now += 10.0
        assert guard.exceeded() == REASON_WALL_CLOCK

    def test_elapsed_tracks_injected_clock(self):
        clock = FakeClock()
        guard = BudgetGuard(clock=clock)
        assert guard.elapsed() == 0.0  # not started yet
        guard.start()
        clock.now += 3.5
        assert guard.elapsed() == pytest.approx(3.5)

    def test_unarmed_guard_never_trips(self):
        guard = BudgetGuard(ResourceBudget(wall_clock_s=0.001))
        assert guard.exceeded() is None


class TestMemoryGuards:
    def test_rss_probe_over_budget(self):
        guard = BudgetGuard(
            ResourceBudget(max_rss_mb=64.0), rss_probe=lambda: 65.0
        )
        guard.start()
        assert guard.exceeded() == REASON_RSS

    def test_rss_probe_under_budget(self):
        guard = BudgetGuard(
            ResourceBudget(max_rss_mb=64.0), rss_probe=lambda: 63.0
        )
        guard.start()
        assert guard.exceeded() is None

    def test_unknown_rss_is_advisory(self):
        guard = BudgetGuard(
            ResourceBudget(max_rss_mb=1.0), rss_probe=lambda: None
        )
        guard.start()
        assert guard.exceeded() is None

    def test_wall_clock_checked_before_memory(self):
        clock = FakeClock()
        guard = BudgetGuard(
            ResourceBudget(wall_clock_s=1.0, max_rss_mb=64.0),
            clock=clock,
            rss_probe=lambda: 1000.0,
        )
        guard.start()
        clock.now += 2.0
        assert guard.exceeded() == REASON_WALL_CLOCK


class TestUnitTimeout:
    def test_fast_unit_passes(self):
        guard = BudgetGuard(ResourceBudget(unit_timeout_s=5.0))
        with guard.unit_timeout():
            result = sum(range(100))
        assert result == 4950

    def test_slow_unit_preempted(self):
        guard = BudgetGuard(ResourceBudget(unit_timeout_s=0.05))
        assert guard.preemptive_timeout  # Unix main thread in pytest
        with pytest.raises(UnitTimeoutError, match="timeout"):
            with guard.unit_timeout():
                time.sleep(5.0)

    def test_timer_disarmed_after_exit(self):
        guard = BudgetGuard(ResourceBudget(unit_timeout_s=0.05))
        with pytest.raises(UnitTimeoutError):
            with guard.unit_timeout():
                time.sleep(5.0)
        # A later slow section must not be hit by a stale alarm.
        time.sleep(0.08)

    def test_no_timeout_configured_is_noop(self):
        guard = BudgetGuard(ResourceBudget())
        assert not guard.preemptive_timeout
        with guard.unit_timeout():
            pass


class TestStackedGuards:
    """Nested unit_timeout contexts must compose, not disarm each other."""

    def test_inner_guard_restores_outer_alarm(self):
        import signal

        outer = BudgetGuard(ResourceBudget(unit_timeout_s=0.2))
        inner = BudgetGuard(ResourceBudget(unit_timeout_s=5.0))
        with pytest.raises(UnitTimeoutError) as excinfo:
            with outer.unit_timeout():
                with inner.unit_timeout():
                    time.sleep(0.02)
                # The outer 0.2s timer must still be ticking here.
                delay, _interval = signal.getitimer(signal.ITIMER_REAL)
                assert 0.0 < delay <= 0.2
                time.sleep(5.0)
        assert excinfo.value.timeout_s == 0.2

    def test_expired_outer_deadline_fires_after_inner_exit(self):
        # The inner guard outlives the outer deadline: on exit the outer
        # alarm is re-armed (almost) immediately instead of dropped.
        outer = BudgetGuard(ResourceBudget(unit_timeout_s=0.05))
        inner = BudgetGuard(ResourceBudget(unit_timeout_s=5.0))
        with pytest.raises(UnitTimeoutError) as excinfo:
            with outer.unit_timeout():
                with inner.unit_timeout():
                    time.sleep(0.1)  # sails past the outer deadline
                time.sleep(1.0)  # re-armed outer alarm lands here
        assert excinfo.value.timeout_s == 0.05

    def test_preexisting_itimer_survives_a_guard(self):
        import signal

        fired = []

        def handler(signum, frame):
            fired.append(signum)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        try:
            guard = BudgetGuard(ResourceBudget(unit_timeout_s=5.0))
            with guard.unit_timeout():
                pass
            delay, _interval = signal.getitimer(signal.ITIMER_REAL)
            assert 0.0 < delay <= 30.0
            assert signal.getsignal(signal.SIGALRM) is handler
            assert not fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class TestChildRssAccounting:
    def test_reaped_child_memory_is_billed(self):
        # A subprocess's allocation must show up in the RSS probe once
        # the child is reaped, so --max-rss-mb still bites when a unit
        # spends its memory in a child process.
        resource = pytest.importorskip("resource")
        import subprocess
        import sys

        from repro.resilience.budget import _ru_maxrss_mb, current_rss_mb

        subprocess.run(
            [
                sys.executable,
                "-c",
                "x = bytearray(200 * 1024 * 1024); x[::4096] = "
                "b'y' * len(x[::4096]); print(len(x))",
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        children_mb = _ru_maxrss_mb(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        assert children_mb >= 190.0
        probe = current_rss_mb()
        assert probe is not None
        assert probe >= children_mb
