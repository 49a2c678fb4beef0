"""Seeded chaos mode: the supervisor's own adversary.

PR 3 injects faults into the *secure-memory model*; chaos mode injects
faults into the *campaign runtime* — randomly killing, delaying, or
OOM-ing unit attempts — so the retry machinery, journaling, and budget
degradation are exercised on demand instead of only when CI happens to
misbehave.

Every strike decision is a pure function of ``(seed, unit_id,
attempt)``: a chaos campaign is exactly reproducible, a killed attempt
can legitimately succeed on retry (the attempt number changes the
draw), and a failure found under ``--chaos --chaos-seed N`` replays
forever.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ResilienceError


class ChaosKill(RuntimeError):
    """Synthetic death of a unit attempt (classified as a retryable CRASH)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Strike probabilities and magnitudes for one chaos campaign."""

    seed: int = 7
    kill_prob: float = 0.2
    delay_prob: float = 0.25
    oom_prob: float = 0.05
    max_delay_s: float = 0.02
    #: Transient allocation held just long enough to move the heap
    #: watermark before the simulated OOM is raised.
    oom_bytes: int = 4 << 20

    def __post_init__(self) -> None:
        for name in ("kill_prob", "delay_prob", "oom_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ResilienceError(f"{name} must be within [0, 1], got {p}")
        if self.max_delay_s < 0:
            raise ResilienceError("max_delay_s cannot be negative")
        if self.oom_bytes < 0:
            raise ResilienceError("oom_bytes cannot be negative")


class ChaosMonkey:
    """Deterministic strike generator mounted around unit attempts."""

    def __init__(
        self,
        config: ChaosConfig,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self.sleep = sleep
        self.kills = 0
        self.delays = 0
        self.ooms = 0

    @property
    def strikes(self) -> int:
        return self.kills + self.delays + self.ooms

    def strike(self, unit_id: str, attempt: int) -> None:
        """Maybe sabotage this (unit, attempt); raises to kill it.

        Draw order is fixed (kill, delay, oom) so the outcome for a
        given seed never depends on config probabilities being
        compared in a different order.
        """
        cfg = self.config
        rng = random.Random(f"chaos:{cfg.seed}:{unit_id}:{attempt}")
        if rng.random() < cfg.kill_prob:
            self.kills += 1
            raise ChaosKill(
                f"chaos: killed unit {unit_id[:8]} on attempt {attempt}"
            )
        if rng.random() < cfg.delay_prob:
            self.delays += 1
            self.sleep(rng.random() * cfg.max_delay_s)
        if rng.random() < cfg.oom_prob:
            self.ooms += 1
            ballast = bytearray(cfg.oom_bytes)
            del ballast
            raise MemoryError(
                f"chaos: simulated OOM in unit {unit_id[:8]} "
                f"on attempt {attempt}"
            )

