"""Plain-text rendering of conformance outcomes for the CLI."""

from __future__ import annotations

from typing import List

from repro.conformance.corpus import CorpusOutcome
from repro.conformance.fuzzer import FuzzReport
from repro.conformance.invariants import INVARIANTS


def render_invariant_table() -> str:
    """The declared invariant set, one line each (used by ``list``/docs)."""
    lines = ["invariants:"]
    for invariant in INVARIANTS:
        scope = "universal" if invariant.universal else "claim"
        lines.append(
            f"  {invariant.name:<24} [{scope:>9}] {invariant.description}"
        )
    return "\n".join(lines)


def render_corpus(outcome: CorpusOutcome) -> str:
    lines: List[str] = [f"corpus: {outcome.corpus_dir}"]
    for entry in outcome.entries:
        status = "ok" if entry.ok else "FAIL"
        if entry.updated:
            status = "updated" if entry.ok else "updated (FAIL)"
        lines.append(f"  {entry.name:<16} {status}")
        for path in entry.missing:
            lines.append(f"    missing: {path}")
        for violation in entry.violations:
            lines.append(f"    violation: {violation}")
        for message in entry.drift:
            lines.append(f"    drift: {message}")
    verdict = "PASS" if outcome.ok else "FAIL"
    lines.append(
        f"corpus verdict: {verdict} "
        f"({sum(1 for e in outcome.entries if e.ok)}/{len(outcome.entries)} "
        f"entries clean)"
    )
    return "\n".join(lines)


def render_fuzz(report: FuzzReport) -> str:
    patterns = ", ".join(
        f"{name}x{count}" for name, count in sorted(report.pattern_counts.items())
    )
    lines = [
        f"fuzz: {report.iterations} iteration(s), seed {report.seed} "
        f"({patterns})"
    ]
    for failure in report.failures:
        lines.append(
            f"  iteration {failure.iteration} [{failure.pattern}] "
            f"{failure.log.trace_name}: {len(failure.violations)} "
            f"violation(s); shrunk {len(failure.log.events)} -> "
            f"{len(failure.shrunk.events)} events"
        )
        for violation in failure.violations:
            lines.append(f"    violation: {violation}")
    verdict = "PASS" if report.ok else "FAIL"
    lines.append(f"fuzz verdict: {verdict} ({len(report.failures)} failing)")
    return "\n".join(lines)
