"""Failure taxonomy and the retry-with-backoff policy.

Every failed attempt of a work unit falls into one class:

* ``DETERMINISTIC`` — a :class:`~repro.common.errors.ReproError`: the
  library itself rejected the work. Retrying replays the same inputs
  into the same code, so the policy never retries these.
* ``CRASH`` — any other exception (including
  :class:`MemoryError` and chaos-mode kills): environmental, retried.
* ``TIMEOUT`` — the per-unit wall-clock bound tripped
  (:class:`~repro.common.errors.UnitTimeoutError`): load, retried.
* ``BUDGET`` — a campaign-wide resource budget was exhausted
  (:class:`~repro.common.errors.BudgetExceededError`): never retried;
  the supervisor degrades gracefully instead.

Backoff is exponential with *seeded* jitter: the delay for a given
(unit, attempt) is a pure function of the policy seed, so a re-run of
a flaky campaign sleeps the same schedule — reproducibility extends to
the supervisor's own timing decisions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet

from repro.common.errors import (
    BudgetExceededError,
    ReproError,
    ResilienceError,
    UnitTimeoutError,
)


class FailureClass(Enum):
    """Why one unit attempt failed, and therefore what to do next."""

    DETERMINISTIC = "deterministic"
    CRASH = "crash"
    TIMEOUT = "timeout"
    BUDGET = "budget"


def classify_failure(exc: BaseException) -> FailureClass:
    """Map one exception onto the retry taxonomy.

    Order matters: the resilience-specific :class:`ReproError`
    subclasses (timeout, budget) are *not* deterministic and must be
    recognized before the generic base class.
    """
    if isinstance(exc, UnitTimeoutError):
        return FailureClass.TIMEOUT
    if isinstance(exc, BudgetExceededError):
        return FailureClass.BUDGET
    if isinstance(exc, ReproError):
        return FailureClass.DETERMINISTIC
    return FailureClass.CRASH


#: Classes worth another attempt (environmental, not logical).
RETRYABLE: FrozenSet[FailureClass] = frozenset(
    {FailureClass.CRASH, FailureClass.TIMEOUT}
)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-unit attempts and the backoff schedule between them."""

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    backoff_factor: float = 2.0
    #: Jitter amplitude as a fraction of the exponential delay: the
    #: slept delay is ``delay * (1 ± jitter)``, drawn from the seeded
    #: per-(unit, attempt) stream.
    jitter: float = 0.25
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ResilienceError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ResilienceError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError("jitter must be within [0, 1]")

    def should_retry(self, failure: FailureClass, attempt: int) -> bool:
        """Whether attempt *attempt* (1-based) warrants another try."""
        return failure in RETRYABLE and attempt < self.max_attempts

    def backoff_delay(self, unit_id: str, attempt: int) -> float:
        """Seconds to sleep after failed attempt *attempt* (1-based)."""
        base = min(
            self.max_delay_s,
            self.base_delay_s * self.backoff_factor ** (attempt - 1),
        )
        rng = random.Random(f"{self.seed}:{unit_id}:{attempt}")
        return max(0.0, base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0)))
