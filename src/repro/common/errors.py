"""Exception hierarchy for the Plutus reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors (``TypeError``, ``KeyError``, ...).

The security-related exceptions mirror the attack classes the paper's
threat model defends against (Section IV-A): spoofing and splicing are
caught by MAC verification (:class:`IntegrityError`), replay is caught by
the integrity tree (:class:`ReplayError`), and counter-mode misuse is
prevented eagerly (:class:`CounterOverflowError`).
"""

from __future__ import annotations

#: Centralized CLI exit codes (docs/ARCHITECTURE.md § Resilient
#: execution). Every ``python -m repro.harness`` subcommand maps its
#: outcome onto exactly these four values:
#:
#: * ``EXIT_OK`` — the run completed and every check passed;
#: * ``EXIT_FAILURE`` — the run completed but found a violation,
#:   missed fault, snapshot drift, or benchmark regression;
#: * ``EXIT_USAGE`` — bad arguments, unknown keys, or a predictable
#:   environment failure (never a traceback);
#: * ``EXIT_PARTIAL`` — a supervised run degraded: a resource budget
#:   was exhausted or work units failed, and the report explicitly
#:   marks the missing cells.
#:
#: The ``cache`` subcommand uses the same vocabulary: ``EXIT_OK`` for
#: ``stats`` and for a ``gc`` pass that met (or could not improve on)
#: its byte budget — pinned in-flight entries surviving a tight budget
#: is correct behavior, not a failure — and ``EXIT_USAGE`` when the
#: store is disabled or the arguments are malformed.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class AlignmentError(ReproError, ValueError):
    """An address or size violated a required alignment."""


class UnknownEngineError(ReproError, KeyError):
    """A run named an engine key that no factory provides.

    Also a ``KeyError``, as :class:`AlignmentError` is also a
    ``ValueError``. As a :class:`ReproError` the supervisor journals
    it as a ``deterministic`` failure.
    """

    def __str__(self) -> str:
        # KeyError would render the message through repr().
        return Exception.__str__(self)


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeySizeError(CryptoError, ValueError):
    """A key of unsupported length was supplied to a cipher."""


class BlockSizeError(CryptoError, ValueError):
    """Data had an invalid length for the selected cipher mode."""


class SecurityViolation(ReproError):
    """Base class for detected attacks on the protected memory.

    Carries enough context for a campaign report (or a user traceback)
    to be actionable: the physical address the violation was detected
    at and the metadata *stream* whose check tripped (``"data"``,
    ``"mac"``, ``"counter"``, ``"bmt"``).
    """

    def __init__(
        self,
        message: str,
        address: "int | None" = None,
        stream: "str | None" = None,
    ) -> None:
        super().__init__(message)
        #: Physical address at which the violation was detected (if known).
        self.address = address
        #: Metadata stream whose verification failed (if known).
        self.stream = stream


class IntegrityError(SecurityViolation):
    """MAC (or value-based) verification failed: data was tampered with."""


class ReplayError(SecurityViolation):
    """Integrity-tree verification failed: stale data was replayed."""


class RecoveryError(SecurityViolation):
    """Post-crash recovery could not restore a verified state.

    Raised by :meth:`repro.secure.recoverable.RecoverableSecureMemory.recover`
    when the persistent image fails validation after WAL redo: the root
    slots are unreadable, the journal is structurally inconsistent, the
    rebuilt counter tree disagrees with the committed root, or the
    recovery scrub finds a sector whose MAC no longer verifies. This is
    the *detected* end state of a torn crash — the opposite of silent
    corruption.
    """


class CrashError(ReproError):
    """Simulated power loss injected at a persist barrier.

    Raised by a crash hook installed on an
    :class:`~repro.mem.backing.NvmRegion`: all volatile state above the
    persistent image is dead at this point and only what the hook chose
    to persist survives. Carries the barrier *site* label and global
    barrier sequence number so the torture harness can attribute the
    kill.
    """

    def __init__(
        self,
        message: str,
        site: "str | None" = None,
        barrier_seq: "int | None" = None,
    ) -> None:
        super().__init__(message)
        #: Persist-barrier site label the crash was injected at.
        self.site = site
        #: Global barrier sequence number of the injection point.
        self.barrier_seq = barrier_seq


class CounterOverflowError(ReproError):
    """An encryption counter exhausted its range.

    Real designs re-encrypt the affected region with a fresh key; the
    reproduction surfaces the event so that tests can assert on the exact
    overflow semantics of split and compact counters.
    """


class SimulationError(ReproError):
    """The trace-driven simulator reached an inconsistent state."""


class TraceError(ReproError):
    """A workload trace record was malformed or out of accepted range."""


class TraceFormatError(TraceError):
    """A trace or event-log *file* failed structural validation.

    Raised by :mod:`repro.workloads.traceio` for malformed or truncated
    files, always naming the offending line so users can fix real dumps
    by hand. ``line`` is ``None`` for whole-file problems (missing
    header, record-count mismatch against the footer).
    """

    def __init__(self, message: str, line: "int | None" = None) -> None:
        super().__init__(
            f"line {line}: {message}" if line is not None else message
        )
        #: 1-based line number the problem was detected at (if known).
        self.line = line


class FaultInjectionError(ReproError):
    """A fault-injection plan or campaign was invalid or inapplicable."""


class ResilienceError(ReproError):
    """A supervised campaign was configured or driven incorrectly."""


class JournalError(ResilienceError):
    """A run journal is missing, unparseable, or names another campaign.

    Raised when ``--resume`` points at an unknown run id, or at a
    journal whose campaign fingerprint does not match the work being
    resumed (resuming a *different* sweep would silently merge
    unrelated results).
    """


class UnitTimeoutError(ResilienceError):
    """One supervised work unit exceeded its per-unit wall-clock bound.

    The supervisor journals it as a ``timeout`` failure, apart from the
    ``deterministic`` class of other :class:`ReproError` subclasses.
    """

    def __init__(self, message: str, timeout_s: "float | None" = None) -> None:
        super().__init__(message)
        #: The bound that was exceeded, in seconds (if known).
        self.timeout_s = timeout_s
