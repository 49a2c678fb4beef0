"""Seeded chaos mode: deterministic sabotage of unit attempts."""

import pytest

from repro.common.errors import ResilienceError
from repro.resilience import ChaosConfig, ChaosKill, ChaosMonkey


def outcome_of(monkey, unit_id, attempt):
    """What one strike did: 'kill', 'oom', or 'pass' (maybe delayed)."""
    try:
        monkey.strike(unit_id, attempt)
    except ChaosKill:
        return "kill"
    except MemoryError:
        return "oom"
    return "pass"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kill_prob": 1.5},
            {"delay_prob": -0.1},
            {"oom_prob": 2.0},
            {"max_delay_s": -1.0},
            {"oom_bytes": -1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ResilienceError):
            ChaosConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_same_strike_sequence(self):
        config = ChaosConfig(seed=7, kill_prob=0.4, oom_prob=0.2,
                             delay_prob=0.0)
        a = ChaosMonkey(config, sleep=lambda _t: None)
        b = ChaosMonkey(config, sleep=lambda _t: None)
        plan = [(f"unit-{i}", attempt) for i in range(20) for attempt in (1, 2)]
        seq_a = [outcome_of(a, uid, att) for uid, att in plan]
        seq_b = [outcome_of(b, uid, att) for uid, att in plan]
        assert seq_a == seq_b
        assert (a.kills, a.delays, a.ooms) == (b.kills, b.delays, b.ooms)

    def test_attempt_number_changes_the_draw(self):
        # A killed attempt can legitimately succeed on retry: the
        # attempt index is part of the RNG stream key.
        config = ChaosConfig(seed=7, kill_prob=0.5, delay_prob=0.0,
                             oom_prob=0.0)
        monkey = ChaosMonkey(config)
        outcomes = {
            outcome_of(monkey, "unit-x", attempt) for attempt in range(1, 30)
        }
        assert outcomes == {"kill", "pass"}

    def test_seed_changes_the_sequence(self):
        plan = [(f"unit-{i}", 1) for i in range(40)]
        seq = {}
        for seed in (1, 2):
            monkey = ChaosMonkey(
                ChaosConfig(seed=seed, kill_prob=0.5, delay_prob=0.0,
                            oom_prob=0.0)
            )
            seq[seed] = [outcome_of(monkey, uid, att) for uid, att in plan]
        assert seq[1] != seq[2]


class TestStrikes:
    def test_certain_kill(self):
        monkey = ChaosMonkey(ChaosConfig(kill_prob=1.0))
        with pytest.raises(ChaosKill):
            monkey.strike("unit", 1)
        assert monkey.kills == 1
        assert monkey.strikes == 1

    def test_certain_oom(self):
        monkey = ChaosMonkey(
            ChaosConfig(kill_prob=0.0, delay_prob=0.0, oom_prob=1.0,
                        oom_bytes=1 << 16)
        )
        with pytest.raises(MemoryError, match="chaos: simulated OOM"):
            monkey.strike("unit", 1)
        assert monkey.ooms == 1

    def test_certain_delay_uses_injected_sleep(self):
        slept = []
        monkey = ChaosMonkey(
            ChaosConfig(kill_prob=0.0, delay_prob=1.0, oom_prob=0.0,
                        max_delay_s=0.5),
            sleep=slept.append,
        )
        monkey.strike("unit", 1)
        assert monkey.delays == 1
        assert len(slept) == 1
        assert 0.0 <= slept[0] <= 0.5

    def test_zero_probabilities_never_strike(self):
        monkey = ChaosMonkey(
            ChaosConfig(kill_prob=0.0, delay_prob=0.0, oom_prob=0.0)
        )
        for i in range(50):
            monkey.strike(f"unit-{i}", 1)
        assert monkey.strikes == 0

