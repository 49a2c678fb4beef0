"""Seeded adversarial-trace fuzzer with ddmin shrinking.

The fuzzer builds :class:`MemoryEventLog` instances directly — below
the L2, so it can express DRAM-side patterns no cache pass would emit —
and feeds each one to the differential oracle. Patterns target the
mechanisms most likely to disagree across engines:

* ``alias`` — sectors exactly one fold apart, so the functional
  oracle's bounded memory sees colliding addresses and the metadata
  caches see conflicting sets;
* ``write-storm`` — long writeback runs against a handful of sectors,
  saturating compact counters (adaptive disable, mirror-layer double
  accesses) and driving split-counter minor overflow re-encryption;
* ``value-thrash`` — every fill carries a fresh value, defeating the
  value cache entirely;
* ``value-hot`` — a two-value pool, maximizing value-cache hits and
  MAC avoidance;
* ``value-bound`` — sector images built so each 128-bit unit carries
  exactly 2, 3, or 4 hot words, straddling the value cache's
  ``hits_required = 3``-of-4 verification bound (Eq. 1); hot words are
  perturbed only in their low ``mask_bits`` so masked-key matching is
  load-bearing, which pins down the batch key-extraction path;
* ``sweep`` and ``uniform`` — regular and mixed baselines.

Failures are shrunk with :func:`shrink`, a generic ddmin over the event
list: it works for any predicate, so tests can inject synthetic
failure conditions without running the full oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.conformance.invariants import Violation, check_run
from repro.conformance.matrix import (
    CONFORMANCE_ENGINES,
    DEFAULT_FUNCTIONAL_EVENTS,
    run_matrix,
)
from repro.gpu.columnar import EventColumns
from repro.gpu.config import VOLTA, GpuConfig
from repro.gpu.simulator import EventKind, MemoryEvent, MemoryEventLog
from repro.workloads.traceio import dumps_event_log, loads_event_log

if TYPE_CHECKING:  # pragma: no cover - hint only; resilience loads lazily
    from repro.resilience import CampaignOutcome

#: Fold distance used by the alias pattern (matches the functional
#: oracle's default bounded-memory size, in sectors).
ALIAS_STRIDE = 2048

#: Pattern names the fuzzer draws from, uniformly per iteration.
PATTERNS = (
    "uniform",
    "alias",
    "write-storm",
    "value-thrash",
    "value-hot",
    "value-bound",
    "sweep",
)


def _value(rng: random.Random) -> bytes:
    return rng.getrandbits(256).to_bytes(32, "little")


def _partitions(rng: random.Random) -> List[int]:
    count = rng.randint(1, 4)
    return rng.sample(range(32), count)


def _finish(
    name: str,
    events: List[MemoryEvent],
    counter_warmup_passes: int,
) -> MemoryEventLog:
    return MemoryEventLog(
        trace_name=name,
        memory_intensity=0.5,
        instructions=max(1, len(events)),
        counter_warmup_passes=counter_warmup_passes,
        events=EventColumns.from_events(events),
    )


def _gen_uniform(rng: random.Random, name: str) -> MemoryEventLog:
    partitions = _partitions(rng)
    base = rng.randrange(0, 4096)
    sectors = [base + i for i in range(rng.randint(8, 64))]
    pool = [_value(rng) for _ in range(16)]
    events = []
    for _ in range(rng.randint(80, 240)):
        kind = EventKind.FILL if rng.random() < 0.6 else EventKind.WRITEBACK
        values: Optional[bytes] = rng.choice(pool)
        if rng.random() < 0.1:
            values = None  # Events can lose values (e.g. merged traces).
        events.append(
            MemoryEvent(kind, rng.choice(partitions), rng.choice(sectors),
                        values)
        )
    return _finish(name, events, rng.randint(0, 3))


def _gen_alias(rng: random.Random, name: str) -> MemoryEventLog:
    partitions = _partitions(rng)
    base = rng.randrange(0, ALIAS_STRIDE)
    rungs = [base + k * ALIAS_STRIDE for k in range(rng.randint(2, 4))]
    pool = [_value(rng) for _ in range(8)]
    events = []
    for _ in range(rng.randint(80, 200)):
        partition = rng.choice(partitions)
        sector = rng.choice(rungs)
        if rng.random() < 0.5:
            events.append(
                MemoryEvent(EventKind.WRITEBACK, partition, sector,
                            rng.choice(pool))
            )
        else:
            events.append(
                MemoryEvent(EventKind.FILL, partition, sector,
                            rng.choice(pool))
            )
    return _finish(name, events, rng.randint(0, 3))


def _gen_write_storm(rng: random.Random, name: str) -> MemoryEventLog:
    partitions = _partitions(rng)
    base = rng.randrange(0, 4096)
    sectors = [base + i for i in range(rng.randint(2, 5))]
    pool = [_value(rng) for _ in range(4)]
    events = []
    # Enough writes per sector to saturate compact counters and force
    # split-counter minor overflow (64 writes) during replay or warmup.
    for _ in range(rng.randint(140, 240)):
        events.append(
            MemoryEvent(EventKind.WRITEBACK, rng.choice(partitions),
                        rng.choice(sectors), rng.choice(pool))
        )
    for sector in sectors:
        events.append(
            MemoryEvent(EventKind.FILL, rng.choice(partitions), sector,
                        rng.choice(pool))
        )
    return _finish(name, events, rng.randint(0, 20))


def _gen_value_thrash(rng: random.Random, name: str) -> MemoryEventLog:
    partitions = _partitions(rng)
    base = rng.randrange(0, 4096)
    sectors = [base + i for i in range(rng.randint(32, 96))]
    events = []
    for _ in range(rng.randint(100, 240)):
        events.append(
            MemoryEvent(EventKind.FILL, rng.choice(partitions),
                        rng.choice(sectors), _value(rng))
        )
    return _finish(name, events, rng.randint(0, 3))


def _gen_value_hot(rng: random.Random, name: str) -> MemoryEventLog:
    partitions = _partitions(rng)
    base = rng.randrange(0, 4096)
    sectors = [base + i for i in range(rng.randint(4, 16))]
    pool = [_value(rng) for _ in range(2)]
    events = []
    for _ in range(rng.randint(100, 240)):
        kind = EventKind.FILL if rng.random() < 0.7 else EventKind.WRITEBACK
        events.append(
            MemoryEvent(kind, rng.choice(partitions), rng.choice(sectors),
                        rng.choice(pool))
        )
    return _finish(name, events, rng.randint(0, 3))


def _gen_value_bound(rng: random.Random, name: str) -> MemoryEventLog:
    """Images that straddle the value cache's x-of-n verification bound.

    The paper's cache verifies a 128-bit unit when at least 3 of its 4
    words hit (Table II / Eq. 1). Each generated image gives every unit
    exactly 2 (one short — must fall back to the MAC), 3 (barely
    verifiable), or 4 hot words, and every hot word is re-randomized in
    its low ``mask_bits`` so only the masked 28-bit key may match. A
    batch path that probes units with the wrong key mask, skips the
    per-unit short-circuit, or observes values out of order lands on
    the other side of the bound and diverges in ``mac_fetches_avoided``
    / ``value_verified_fills`` immediately.
    """
    partitions = _partitions(rng)
    base = rng.randrange(0, 4096)
    sectors = [base + i for i in range(rng.randint(4, 12))]
    hot = [rng.getrandbits(32) for _ in range(4)]

    def image(hot_per_unit: int) -> bytes:
        words: List[int] = []
        for _unit in range(2):
            picks = set(rng.sample(range(4), hot_per_unit))
            for slot in range(4):
                if slot in picks:
                    word = (hot[rng.randrange(len(hot))] & ~0xF) | (
                        rng.getrandbits(4)
                    )
                else:
                    word = rng.getrandbits(32)
                words.append(word)
        return b"".join(word.to_bytes(4, "little") for word in words)

    events = []
    # Writebacks seed the hot words (observe + write-verifiable probes);
    # fills then test them against the bound from both sides.
    for _ in range(rng.randint(100, 220)):
        kind = EventKind.FILL if rng.random() < 0.65 else EventKind.WRITEBACK
        hot_per_unit = rng.choice((2, 3, 3, 4))
        events.append(
            MemoryEvent(kind, rng.choice(partitions), rng.choice(sectors),
                        image(hot_per_unit))
        )
    return _finish(name, events, rng.randint(0, 3))


def _gen_sweep(rng: random.Random, name: str) -> MemoryEventLog:
    partitions = _partitions(rng)
    base = rng.randrange(0, 4096)
    length = rng.randint(40, 120)
    pool = [_value(rng) for _ in range(8)]
    events = []
    for i in range(length):
        events.append(
            MemoryEvent(EventKind.FILL, partitions[i % len(partitions)],
                        base + i, rng.choice(pool))
        )
    for i in range(length):
        events.append(
            MemoryEvent(EventKind.WRITEBACK, partitions[i % len(partitions)],
                        base + i, rng.choice(pool))
        )
    return _finish(name, events, rng.randint(0, 3))


_GENERATORS: Dict[str, Callable[[random.Random, str], MemoryEventLog]] = {
    "uniform": _gen_uniform,
    "alias": _gen_alias,
    "write-storm": _gen_write_storm,
    "value-thrash": _gen_value_thrash,
    "value-hot": _gen_value_hot,
    "value-bound": _gen_value_bound,
    "sweep": _gen_sweep,
}


def generate_log(
    pattern: str, rng: random.Random, name: str
) -> MemoryEventLog:
    """Build one adversarial event log for a named pattern."""
    try:
        generator = _GENERATORS[pattern]
    except KeyError:
        raise KeyError(
            f"unknown fuzz pattern {pattern!r}; known: {sorted(_GENERATORS)}"
        ) from None
    return generator(rng, name)


def rebuild_log(
    log: MemoryEventLog, events: Sequence[MemoryEvent]
) -> MemoryEventLog:
    """A copy of *log* holding exactly *events*: every header field is
    the original's, and the copy has its own ``L2Stats``."""
    return replace(log, l2_stats=replace(log.l2_stats),
                   events=EventColumns.from_events(list(events)))


def shrink(
    log: MemoryEventLog,
    predicate: Callable[[MemoryEventLog], bool],
) -> MemoryEventLog:
    """ddmin: a minimal event sub-list still satisfying *predicate*.

    *predicate* receives a rebuilt log and returns True while the log
    still fails. The result is 1-minimal in the ddmin sense: removing
    any single tried chunk breaks the predicate. The original *log* is
    never mutated.
    """
    events = list(log.events.iter_events())
    if not predicate(rebuild_log(log, events)):
        raise ValueError("original log does not satisfy the predicate")
    granularity = 2
    while len(events) >= 2:
        chunk = max(1, (len(events) + granularity - 1) // granularity)
        reduced = False
        for start in range(0, len(events), chunk):
            candidate = events[:start] + events[start + chunk:]
            if not candidate:
                continue
            if predicate(rebuild_log(log, candidate)):
                events = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return rebuild_log(log, events)


@dataclass
class FuzzFailure:
    """One fuzz iteration that violated a universal invariant."""

    iteration: int
    pattern: str
    violations: List[Violation]
    log: MemoryEventLog
    #: The ddmin-minimized reproducer (equals ``log`` if not shrunk).
    shrunk: MemoryEventLog


@dataclass
class FuzzReport:
    """Outcome of one seeded fuzz campaign."""

    iterations: int
    seed: int
    #: The supervised outcome of the chunk units. A partial one means
    #: some iteration ranges never reported.
    supervision: CampaignOutcome
    pattern_counts: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No invariant violation among the iterations that ran.

        It covers only the units that completed; ``supervision.partial``
        says whether any iteration range is missing.
        """
        return not self.failures


def evaluate_log(
    log: MemoryEventLog,
    config: GpuConfig = VOLTA,
    engines: Sequence[str] = CONFORMANCE_ENGINES,
    functional_events: Optional[int] = DEFAULT_FUNCTIONAL_EVENTS,
) -> List[Violation]:
    """Run the universal-invariant oracle on one (adversarial) log."""
    run = run_matrix(
        log,
        config=config,
        engines=engines,
        claims_apply=False,
        functional_events=functional_events,
    )
    return check_run(run)


def _fuzz_range(
    start: int,
    stop: int,
    seed: int,
    config: GpuConfig = VOLTA,
    engines: Sequence[str] = CONFORMANCE_ENGINES,
    functional_events: Optional[int] = DEFAULT_FUNCTIONAL_EVENTS,
) -> Tuple[Dict[str, int], List[FuzzFailure]]:
    """Run iterations ``[start, stop)`` of a seeded campaign.

    Each iteration derives its own RNG from (seed, iteration), so the
    result of a range never depends on how the campaign was chunked —
    the property behind supervised (resumable) fuzzing. Failing logs
    are ddmin-shrunk against the same oracle.
    """
    pattern_counts: Dict[str, int] = {}
    failures: List[FuzzFailure] = []
    for iteration in range(start, stop):
        rng = random.Random(seed * 1_000_003 + iteration)
        pattern = rng.choice(PATTERNS)
        pattern_counts[pattern] = pattern_counts.get(pattern, 0) + 1
        name = f"fuzz-s{seed}-i{iteration}-{pattern}"
        log = generate_log(pattern, rng, name)
        violations = evaluate_log(
            log, config=config, engines=engines,
            functional_events=functional_events,
        )
        if not violations:
            continue

        def still_failing(candidate: MemoryEventLog) -> bool:
            return bool(
                evaluate_log(
                    candidate, config=config, engines=engines,
                    functional_events=functional_events,
                )
            )

        shrunk = shrink(log, still_failing)
        failures.append(
            FuzzFailure(
                iteration=iteration,
                pattern=pattern,
                violations=violations,
                log=log,
                shrunk=shrunk,
            )
        )
    return pattern_counts, failures


# -- supervised decomposition -------------------------------------------------

def _failure_payload(failure: FuzzFailure) -> Dict[str, object]:
    return {
        "iteration": failure.iteration,
        "pattern": failure.pattern,
        "violations": [
            {"invariant": v.invariant, "message": v.message}
            for v in failure.violations
        ],
        "events": dumps_event_log(failure.log),
        "shrunk": dumps_event_log(failure.shrunk),
    }


def _failure_from_payload(payload: Dict[str, object]) -> FuzzFailure:
    return FuzzFailure(
        iteration=payload["iteration"],
        pattern=payload["pattern"],
        violations=[
            Violation(invariant=v["invariant"], message=v["message"])
            for v in payload["violations"]
        ],
        log=loads_event_log(payload["events"]),
        shrunk=loads_event_log(payload["shrunk"]),
    )


def fuzz_campaign(
    iterations: int,
    seed: int,
    chunk_size: int = 8,
    config: GpuConfig = VOLTA,
    engines: Sequence[str] = CONFORMANCE_ENGINES,
    functional_events: Optional[int] = DEFAULT_FUNCTIONAL_EVENTS,
):
    """Decompose a fuzz campaign into chunked, resumable work units.

    Per-iteration seeding makes chunk results independent of the chunk
    boundaries, so any chunking of the same (iterations, seed) campaign
    reaches the same verdict; the chunk merely amortizes journal writes
    over several iterations.
    """
    from repro.common.digest import content_digest
    from repro.resilience import Campaign, WorkUnit

    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    config_id = content_digest("gpu-config", repr(config))

    def runner_for(start: int, stop: int):
        def run() -> Dict[str, object]:
            counts, failures = _fuzz_range(
                start, stop, seed,
                config=config,
                engines=engines,
                functional_events=functional_events,
            )
            return {
                "pattern_counts": counts,
                "failures": [_failure_payload(f) for f in failures],
            }

        return run

    units = []
    for start in range(0, iterations, chunk_size):
        stop = min(start + chunk_size, iterations)
        units.append(
            WorkUnit(
                kind="fuzz-chunk",
                params={
                    "seed": seed,
                    "start": start,
                    "stop": stop,
                    "engines": list(engines),
                    "functional_events": functional_events,
                    "config": config_id,
                    # The journaled layout of failing logs is part of
                    # the unit identity, so a journal holding another
                    # layout is refused on resume instead of misparsed.
                    "failure_logs": "event-log-text",
                },
                runner=runner_for(start, stop),
                label=f"fuzz[{start}:{stop}]",
            )
        )
    return Campaign(name=f"fuzz:s{seed}:n{iterations}", units=units)


def fuzz(
    iterations: int,
    seed: int,
    config: GpuConfig = VOLTA,
    engines: Sequence[str] = CONFORMANCE_ENGINES,
    functional_events: Optional[int] = DEFAULT_FUNCTIONAL_EVENTS,
    chunk_size: int = 8,
    supervisor=None,
) -> FuzzReport:
    """Run a seeded fuzz campaign against the universal invariants.

    Each iteration derives its own RNG from (seed, iteration), so any
    failure is reproducible in isolation from its iteration number.
    Failing logs are ddmin-shrunk against the same oracle. The
    iterations run as :func:`fuzz_campaign` chunks under *supervisor*
    (default: a plain :class:`~repro.resilience.Supervisor`, which
    journals nothing); chunks lost to failure or degradation contribute
    nothing to the report, so ``report.ok`` holds only together with
    ``report.supervision.ok``, which records which ranges are missing.
    """
    from repro.resilience import Supervisor

    campaign = fuzz_campaign(
        iterations, seed,
        chunk_size=chunk_size,
        config=config,
        engines=engines,
        functional_events=functional_events,
    )
    if supervisor is None:
        supervisor = Supervisor()
    outcome = supervisor.run(campaign)
    report = FuzzReport(iterations=iterations, seed=seed, supervision=outcome)
    failures: List[FuzzFailure] = []
    for payload in outcome.results.values():
        for pattern, count in payload["pattern_counts"].items():
            report.pattern_counts[pattern] = (
                report.pattern_counts.get(pattern, 0) + count
            )
        failures.extend(
            _failure_from_payload(f) for f in payload["failures"]
        )
    report.failures = sorted(failures, key=lambda f: f.iteration)
    return report
