"""Glue for the ``conform`` subcommand.

Thin composition over :mod:`repro.conformance`: run the golden corpus
and/or a seeded fuzz campaign, bundle the outcomes, and expose one
``ok`` flag the CLI turns into an exit status.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.conformance.corpus import CorpusOutcome, run_corpus
from repro.conformance.fuzzer import (
    FuzzReport,
    fuzz,
    fuzz_campaign,
    fuzz_report_from_outcome,
)
from repro.conformance.matrix import DEFAULT_FUNCTIONAL_EVENTS


@dataclass
class ConformOutcome:
    """What one ``conform`` invocation checked and found."""

    corpus: Optional[CorpusOutcome] = None
    fuzz: Optional[FuzzReport] = None
    #: Supervised fuzz outcome (``None`` unless a supervisor ran it).
    #: Partial means some iteration ranges never reported; ``ok`` then
    #: speaks only for the iterations that did run.
    supervision: Optional[object] = None

    @property
    def ok(self) -> bool:
        if self.corpus is not None and not self.corpus.ok:
            return False
        if self.fuzz is not None and not self.fuzz.ok:
            return False
        return True

    @property
    def partial(self) -> bool:
        return self.supervision is not None and self.supervision.partial


def run_conform(
    corpus: bool = True,
    fuzz_iterations: int = 0,
    seed: int = 2023,
    update: bool = False,
    corpus_dir: Optional[Path] = None,
    functional_events: Optional[int] = DEFAULT_FUNCTIONAL_EVENTS,
    supervisor_factory: Optional[Callable] = None,
    fuzz_chunk: int = 8,
) -> ConformOutcome:
    """Run the requested conformance stages and bundle their outcomes.

    ``supervisor_factory`` (campaign -> Supervisor) opts the fuzz stage
    into supervised execution: iterations run as chunked work units
    with retry, journaling, and budget degradation; the factory shape
    lets the caller open a run journal against the concrete campaign.
    The supervisor is built before the corpus stage runs, so a journal
    it refuses stops the command before any work is done.
    """
    outcome = ConformOutcome()
    supervisor = None
    if fuzz_iterations > 0 and supervisor_factory is not None:
        campaign = fuzz_campaign(
            fuzz_iterations, seed,
            chunk_size=fuzz_chunk,
            functional_events=functional_events,
        )
        supervisor = supervisor_factory(campaign)
    if corpus or update:
        outcome.corpus = run_corpus(
            corpus_dir=corpus_dir,
            update=update,
            functional_events=functional_events,
        )
    if fuzz_iterations > 0:
        if supervisor is None:
            outcome.fuzz = fuzz(
                fuzz_iterations, seed, functional_events=functional_events
            )
        else:
            supervised = supervisor.run(campaign)
            outcome.supervision = supervised
            outcome.fuzz = fuzz_report_from_outcome(
                supervised, fuzz_iterations, seed
            )
    return outcome
