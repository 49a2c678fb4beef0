"""Glue for the ``conform`` subcommand.

Thin composition over :mod:`repro.conformance`: run a seeded fuzz
campaign and/or the golden corpus, bundle the outcomes, and expose one
``ok`` flag the CLI turns into an exit status.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.conformance.corpus import CorpusOutcome, run_corpus
from repro.conformance.fuzzer import FuzzReport, fuzz
from repro.conformance.matrix import DEFAULT_FUNCTIONAL_EVENTS


@dataclass
class ConformOutcome:
    """What one ``conform`` invocation checked and found."""

    corpus: Optional[CorpusOutcome] = None
    fuzz: Optional[FuzzReport] = None

    @property
    def ok(self) -> bool:
        if self.corpus is not None and not self.corpus.ok:
            return False
        if self.fuzz is not None and not self.fuzz.ok:
            return False
        return True

    @property
    def partial(self) -> bool:
        """Whether some fuzz iteration ranges never reported.

        ``ok`` then speaks only for the iterations that did run.
        """
        return self.fuzz is not None and self.fuzz.supervision.partial


def run_conform(
    corpus: bool = True,
    fuzz_iterations: int = 0,
    seed: int = 2023,
    update: bool = False,
    corpus_dir: Optional[Path] = None,
    functional_events: Optional[int] = DEFAULT_FUNCTIONAL_EVENTS,
    supervisor=None,
    fuzz_chunk: int = 8,
) -> ConformOutcome:
    """Run the requested conformance stages and bundle their outcomes.

    The fuzz stage runs first, as chunked work units under *supervisor*
    (default: a plain :class:`~repro.resilience.Supervisor`), so a
    journal it refuses, including one recorded for other work, stops
    the command before the corpus stage spends its time.
    """
    outcome = ConformOutcome()
    if fuzz_iterations > 0:
        outcome.fuzz = fuzz(
            fuzz_iterations, seed,
            functional_events=functional_events,
            chunk_size=fuzz_chunk,
            supervisor=supervisor,
        )
    if corpus or update:
        outcome.corpus = run_corpus(
            corpus_dir=corpus_dir,
            update=update,
            functional_events=functional_events,
        )
    return outcome
