"""The golden conformance corpus: build, verify, regenerate.

Six small deterministic event logs are committed under
``tests/conformance/corpus/`` as ``<name>.events`` (the
:mod:`repro.workloads.traceio` event-log format, hex-encoded column
chunks) together with
``<name>.snap`` — the expected per-engine :class:`TrafficReport` of the
full conformance matrix. Three are benchmark-derived (workload-shaped,
so the paper's ordering claims are asserted on them); three come from
the fuzzer's adversarial generators under fixed seeds (universal
invariants only).

Verification replays the *committed* logs — the files are the source
of truth — and reports two failure classes per entry: invariant
violations (the matrix's ``io-roundtrip`` invariant covers a
serialize/reload of the log) and snapshot drift (current traffic
differs from the committed snapshot). ``--update`` rebuilds both files
from the entry specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import TraceError
from repro.conformance.fuzzer import generate_log
from repro.conformance.invariants import Violation, check_run
from repro.conformance.matrix import (
    CONFORMANCE_ENGINES,
    DEFAULT_FUNCTIONAL_EVENTS,
    run_matrix,
)
from repro.gpu.config import VOLTA, GpuConfig
from repro.gpu.simulator import MemoryEventLog, SimulationResult
from repro.mem.traffic import Stream, TrafficReport
from repro.workloads.benchmarks import build_trace
from repro.workloads.traceio import (
    load_event_log,
    load_traffic_reports,
    save_event_log,
    save_traffic_reports,
)


@dataclass(frozen=True)
class CorpusSpec:
    """How one golden corpus entry is (re)built deterministically."""

    name: str
    #: "benchmark" builds a trace and runs the L2 pass; "fuzz" uses an
    #: adversarial generator directly.
    kind: str
    benchmark: Optional[str] = None
    trace_length: int = 1500
    #: Benchmark trace seed, or the fuzz generator's RNG seed.
    seed: int = 2023
    pattern: Optional[str] = None
    #: Whether the paper's ordering claims are asserted on this entry.
    claims_apply: bool = False


#: The committed corpus. Benchmark entries cover a graph workload, a
#: dense stencil, and an irregular coloring kernel; fuzz entries pin
#: the three adversarial patterns the tentpole names.
CORPUS: Tuple[CorpusSpec, ...] = (
    CorpusSpec("bfs-small", "benchmark", benchmark="bfs",
               trace_length=1500, seed=2023, claims_apply=True),
    CorpusSpec("lbm-small", "benchmark", benchmark="lbm",
               trace_length=1500, seed=2023, claims_apply=True),
    CorpusSpec("color-small", "benchmark", benchmark="color",
               trace_length=1500, seed=2023, claims_apply=True),
    CorpusSpec("alias-storm", "fuzz", pattern="alias", seed=11),
    CorpusSpec("write-storm", "fuzz", pattern="write-storm", seed=7),
    CorpusSpec("value-thrash", "fuzz", pattern="value-thrash", seed=3),
)


def default_corpus_dir() -> Path:
    """The committed corpus location inside this repository."""
    return (
        Path(__file__).resolve().parents[3] / "tests" / "conformance"
        / "corpus"
    )


def build_spec_log(spec: CorpusSpec, config: GpuConfig = VOLTA) -> MemoryEventLog:
    """Deterministically rebuild one entry's event log from its spec."""
    if spec.kind == "benchmark":
        if spec.benchmark is None:
            raise ValueError(f"corpus entry {spec.name!r} names no benchmark")
        from repro.gpu.simulator import simulate_l2

        trace = build_trace(
            spec.benchmark, length=spec.trace_length, seed=spec.seed
        )
        return simulate_l2(trace, config)
    if spec.kind == "fuzz":
        if spec.pattern is None:
            raise ValueError(f"corpus entry {spec.name!r} names no pattern")
        rng = random.Random(spec.seed)
        return generate_log(spec.pattern, rng, spec.name)
    raise ValueError(f"corpus entry {spec.name!r} has unknown kind {spec.kind!r}")


def _diff_reports(
    expected: Dict[str, TrafficReport],
    actual: Dict[str, SimulationResult],
) -> List[str]:
    messages = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            messages.append(f"snapshot names engine {key!r} not in the matrix")
            continue
        if key not in expected:
            messages.append(f"engine {key!r} missing from the snapshot")
            continue
        want = expected[key]
        got = actual[key].traffic
        for stream in Stream:
            pair = (
                want.bytes_by_stream[stream],
                want.transactions_by_stream[stream],
            )
            now = (
                got.bytes_by_stream[stream],
                got.transactions_by_stream[stream],
            )
            if pair != now:
                messages.append(
                    f"{key}: stream {stream.value} drifted — snapshot "
                    f"{pair[0]}B/{pair[1]}tx, current {now[0]}B/{now[1]}tx"
                )
    return messages


@dataclass
class CorpusEntryResult:
    """Everything verification observed for one corpus entry."""

    name: str
    violations: List[Violation] = field(default_factory=list)
    drift: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    updated: bool = False

    @property
    def ok(self) -> bool:
        return not (self.violations or self.drift or self.missing)


@dataclass
class CorpusOutcome:
    """Result of one corpus verification or regeneration pass."""

    corpus_dir: Path
    entries: List[CorpusEntryResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)


def events_path(corpus_dir: Path, name: str) -> Path:
    return corpus_dir / f"{name}.events"


def snapshot_path(corpus_dir: Path, name: str) -> Path:
    return corpus_dir / f"{name}.snap"


def run_corpus(
    corpus_dir: Optional[Path] = None,
    update: bool = False,
    config: GpuConfig = VOLTA,
    specs: Sequence[CorpusSpec] = CORPUS,
    engines: Sequence[str] = CONFORMANCE_ENGINES,
    functional_events: Optional[int] = DEFAULT_FUNCTIONAL_EVENTS,
) -> CorpusOutcome:
    """Verify (or with ``update=True`` regenerate) the golden corpus.

    Verification replays each committed ``.events`` log through the
    conformance matrix, checks the invariant set (claim invariants only
    on entries whose spec asserts them), and compares traffic to the
    committed ``.snap``. Regeneration rebuilds both files from the entry
    specs — and still runs the invariant oracle, so a regression cannot
    be baked into fresh snapshots silently.
    """
    root = default_corpus_dir() if corpus_dir is None else corpus_dir
    outcome = CorpusOutcome(corpus_dir=root)
    for spec in specs:
        entry = CorpusEntryResult(name=spec.name)
        outcome.entries.append(entry)
        if update:
            log = build_spec_log(spec, config)
        else:
            path = events_path(root, spec.name)
            if not path.exists():
                entry.missing.append(str(path))
                continue
            try:
                with path.open("r", encoding="utf-8") as fp:
                    log = load_event_log(fp)
            except TraceError as exc:
                entry.drift.append(f"unparseable event log {path}: {exc}")
                continue

        run = run_matrix(
            log,
            config=config,
            engines=engines,
            claims_apply=spec.claims_apply,
            functional_events=functional_events,
        )
        entry.violations = check_run(run)

        if update:
            # Atomic per-file replacement: an interrupted --update
            # leaves the previous golden files intact, never torn ones.
            root.mkdir(parents=True, exist_ok=True)
            save_event_log(log, events_path(root, spec.name))
            save_traffic_reports(
                {key: run.results[key].traffic for key in engines},
                snapshot_path(root, spec.name),
                name=spec.name,
            )
            entry.updated = True
        else:
            snap = snapshot_path(root, spec.name)
            if not snap.exists():
                entry.missing.append(str(snap))
                continue
            try:
                with snap.open("r", encoding="utf-8") as fp:
                    expected = load_traffic_reports(fp)
            except TraceError as exc:
                entry.drift.append(f"unparseable snapshot {snap}: {exc}")
                continue
            entry.drift = _diff_reports(expected, run.results)
    return outcome
