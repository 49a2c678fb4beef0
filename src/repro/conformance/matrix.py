"""The conformance engine matrix and differential run context.

One :class:`MatrixRun` bundles everything the invariant oracle looks
at for a single event log: the symbolic replay results of the full
engine matrix, the functional-crypto outcomes, the text-IO round-trip
replay, and the crash-recovery probe.
:func:`run_matrix` is the only way these are produced, so every caller
— corpus verification, the fuzzer, tests — checks the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.conformance.functional import (
    DEFAULT_FOLD_SECTORS,
    FUNCTIONAL_MODES,
    FunctionalOutcome,
    RecoveryOutcome,
    execute_modes,
    execute_recovery_probe,
)
from repro.gpu.config import VOLTA, GpuConfig
from repro.gpu.simulator import (
    MemoryEventLog,
    SimulationResult,
    replay_events,
    replay_matrix,
)
from repro.workloads.traceio import dumps_event_log, loads_event_log

#: The engine design points every conformance run compares: the
#: insecure floor, both prior-work baselines, full Plutus, and its
#: three single-idea ablations (value verification only, compact
#: mirrored counters only, fine-grained metadata only).
CONFORMANCE_ENGINES: Tuple[str, ...] = (
    "nosec",
    "pssm",
    "common-counters",
    "plutus",
    "plutus:value-only",
    "compact:adaptive",
    "gran:32B-all",
    # The crash-recoverable variant: PSSM-shaped traffic plus the
    # persisted metadata-log stream (never claim-bounded by PSSM).
    "recoverable",
)

#: Engine replayed a second time for the round-trip identity check
#: (the richest design: every mechanism on).
CROSS_CHECK_ENGINE = "plutus"

#: Cap on events the functional-crypto stage executes per mode; longer
#: logs run a representative prefix (recorded in the outcome), which
#: keeps the stage's cost independent of log length.
DEFAULT_FUNCTIONAL_EVENTS = 240


@dataclass
class MatrixRun:
    """Everything the invariant oracle inspects for one event log.

    ``claims_apply`` marks workload-shaped logs: the paper's *ordering*
    claims (Plutus metadata <= PSSM) hold for benchmark-like access
    patterns but are deliberately breakable by adversarial streams that
    saturate the compact-counter mirror layer — the fuzzer generates
    exactly those, so claim-level invariants are scoped to logs that
    assert them (see :mod:`repro.conformance.invariants`).
    """

    log: MemoryEventLog
    config: GpuConfig
    results: Dict[str, SimulationResult]
    functional: Dict[str, FunctionalOutcome] = field(default_factory=dict)
    #: (engine key, reloaded-log replay result) when the round-trip ran.
    roundtrip: Optional[Tuple[str, SimulationResult]] = None
    #: Crash-recovery probe outcome; ``None`` when the stage was
    #: disabled or the log has no writebacks (nothing to tear).
    recovery: Optional[RecoveryOutcome] = None
    claims_apply: bool = False


def conformance_factories(
    engines: Sequence[str] = CONFORMANCE_ENGINES,
) -> Dict[str, object]:
    """Resolve the matrix's engine keys to their named factories."""
    from repro.harness.runner import engine_factories

    named = engine_factories()
    unknown = [key for key in engines if key not in named]
    if unknown:
        raise KeyError(
            f"unknown conformance engines {unknown}; known: {sorted(named)}"
        )
    return {key: named[key] for key in engines}


def run_matrix(
    log: MemoryEventLog,
    config: GpuConfig = VOLTA,
    engines: Sequence[str] = CONFORMANCE_ENGINES,
    claims_apply: bool = False,
    check_roundtrip: bool = True,
    check_recovery: bool = True,
    functional_modes: Sequence[str] = FUNCTIONAL_MODES,
    functional_events: Optional[int] = DEFAULT_FUNCTIONAL_EVENTS,
    fold_sectors: int = DEFAULT_FOLD_SECTORS,
) -> MatrixRun:
    """Replay *log* through the full differential matrix.

    Each cross-check stage can be switched off; the functional stage is
    disabled entirely with ``functional_modes=()``.
    """
    factories = conformance_factories(engines)
    results = replay_matrix(log, factories, config)

    run = MatrixRun(
        log=log, config=config, results=results, claims_apply=claims_apply
    )

    if check_roundtrip:
        cross_key = (
            CROSS_CHECK_ENGINE if CROSS_CHECK_ENGINE in factories
            else next(iter(factories))
        )
        reloaded = loads_event_log(dumps_event_log(log))
        run.roundtrip = (
            cross_key,
            replay_events(reloaded, factories[cross_key], config),
        )
    if functional_modes:
        run.functional = execute_modes(
            log,
            modes=tuple(functional_modes),
            fold_sectors=fold_sectors,
            max_events=functional_events,
        )
    if check_recovery:
        run.recovery = execute_recovery_probe(
            log, max_events=functional_events
        )
    return run
