"""The declared cross-engine invariants and their oracle.

Invariants come in two scopes:

* **Universal** invariants are exact accounting identities that must
  hold for *every* event log, including the adversarial ones the fuzzer
  produces: sector-quantum traffic, data-side accounting, cross-engine
  data identity, round-trip and columnar/object replay identity, and
  functional-crypto verification closing.
* **Claim** invariants encode the paper's *ordering* claims (Plutus
  metadata <= PSSM). They hold for workload-shaped access patterns but
  are deliberately breakable by adversarial streams — a write-storm
  that saturates the compact counters makes the mirror layer pay
  double accesses until adaptive disable kicks in, and the paper never
  claims otherwise. They are only checked when the log asserts
  ``claims_apply`` (the golden benchmark corpus does; the fuzzer does
  not).

Every check returns plain-English messages; :func:`check_run` wraps
them in :class:`Violation` records for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.conformance.matrix import MatrixRun
from repro.gpu.simulator import SimulationResult
from repro.mem.traffic import Stream

#: Every modeled DRAM transaction moves one 32-byte sector.
SECTOR_QUANTUM = 32

#: Engine keys whose metadata the paper orders against the PSSM
#: baseline (each must not exceed it on workload-shaped logs).
CLAIM_BOUNDED_BY_PSSM = ("plutus", "plutus:value-only", "common-counters")


@dataclass(frozen=True)
class Violation:
    """One observed breach of a declared invariant."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


@dataclass(frozen=True)
class Invariant:
    """A named cross-engine property with its checking function."""

    name: str
    universal: bool
    description: str
    check: Callable[[MatrixRun], List[str]]


def _check_stream_quantum(run: MatrixRun) -> List[str]:
    messages = []
    labeled = [(key, res) for key, res in run.results.items()]
    if run.roundtrip is not None:
        labeled.append((f"{run.roundtrip[0]}(roundtrip)", run.roundtrip[1]))
    for key, result in labeled:
        for stream in Stream:
            nbytes = result.traffic.bytes_by_stream[stream]
            ntx = result.traffic.transactions_by_stream[stream]
            if nbytes != SECTOR_QUANTUM * ntx:
                messages.append(
                    f"{key}: stream {stream.value} moved {nbytes}B in "
                    f"{ntx} transactions (expected {SECTOR_QUANTUM}B each)"
                )
    return messages


def _check_data_accounting(run: MatrixRun) -> List[str]:
    messages = []
    log = run.log
    for key, result in run.results.items():
        stats = result.engine_stats
        if stats.fills != log.fill_sectors:
            messages.append(
                f"{key}: engine saw {stats.fills} fills but the log "
                f"contains {log.fill_sectors}"
            )
        if stats.writebacks != log.writeback_sectors:
            messages.append(
                f"{key}: engine saw {stats.writebacks} writebacks but "
                f"the log contains {log.writeback_sectors}"
            )
        reads = result.traffic.transactions_by_stream[Stream.DATA_READ]
        writes = result.traffic.transactions_by_stream[Stream.DATA_WRITE]
        expect_reads = log.fill_sectors + stats.reencrypted_sectors
        expect_writes = log.writeback_sectors + stats.reencrypted_sectors
        if reads != expect_reads:
            messages.append(
                f"{key}: {reads} data-read transactions, expected "
                f"{log.fill_sectors} fills + {stats.reencrypted_sectors} "
                f"re-encryptions = {expect_reads}"
            )
        if writes != expect_writes:
            messages.append(
                f"{key}: {writes} data-write transactions, expected "
                f"{log.writeback_sectors} writebacks + "
                f"{stats.reencrypted_sectors} re-encryptions = {expect_writes}"
            )
    return messages


def _check_data_identity(run: MatrixRun) -> List[str]:
    # Net of counter-overflow re-encryption (an engine-specific data
    # cost), every engine must issue the same data transactions — the
    # log fixes the data-side decisions.
    messages = []
    net: List[Tuple[str, int, int]] = []
    for key, result in run.results.items():
        stats = result.engine_stats
        net.append(
            (
                key,
                result.traffic.transactions_by_stream[Stream.DATA_READ]
                - stats.reencrypted_sectors,
                result.traffic.transactions_by_stream[Stream.DATA_WRITE]
                - stats.reencrypted_sectors,
            )
        )
    if not net:
        return messages
    ref_key, ref_reads, ref_writes = net[0]
    for key, reads, writes in net[1:]:
        if (reads, writes) != (ref_reads, ref_writes):
            messages.append(
                f"{key}: net data transactions ({reads} reads, {writes} "
                f"writes) differ from {ref_key} ({ref_reads} reads, "
                f"{ref_writes} writes)"
            )
    return messages


def _check_nosec_floor(run: MatrixRun) -> List[str]:
    result = run.results.get("nosec")
    if result is None:
        return []
    if result.traffic.metadata_bytes != 0:
        return [
            f"nosec moved {result.traffic.metadata_bytes} metadata bytes "
            f"(must be exactly 0)"
        ]
    return []


def results_equal(a: SimulationResult, b: SimulationResult) -> List[str]:
    """Describe every way two replay results differ (empty = identical).

    Compares per-stream bytes/transactions and the engine statistics —
    the full observable surface of a symbolic replay. Shared by the IO
    round-trip and columnar/object identity invariants, and by
    ``bench --verify-identity``.
    """
    messages = []
    for stream in Stream:
        pair = (
            a.traffic.bytes_by_stream[stream],
            a.traffic.transactions_by_stream[stream],
        )
        other = (
            b.traffic.bytes_by_stream[stream],
            b.traffic.transactions_by_stream[stream],
        )
        if pair != other:
            messages.append(
                f"stream {stream.value}: {pair[0]}B/{pair[1]}tx vs "
                f"{other[0]}B/{other[1]}tx"
            )
    if a.engine_stats != b.engine_stats:
        messages.append(
            f"engine stats differ: {a.engine_stats} vs {b.engine_stats}"
        )
    return messages


def _check_roundtrip(run: MatrixRun) -> List[str]:
    if run.roundtrip is None:
        return []
    key, replayed = run.roundtrip
    original = run.results[key]
    return [
        f"{key}: original vs text-IO round-trip — {msg}"
        for msg in results_equal(original, replayed)
    ]


def _check_columnar_identity(run: MatrixRun) -> List[str]:
    # run.results replayed through the default (columnar where
    # eligible) path; run.object_path through the forced scalar loop.
    # The refactor is only sound if no engine can tell them apart.
    messages = []
    for key, scalar in run.object_path.items():
        columnar = run.results.get(key)
        if columnar is None:
            continue
        messages.extend(
            f"{key}: columnar vs object replay — {msg}"
            for msg in results_equal(columnar, scalar)
        )
    return messages


def _check_functional(run: MatrixRun) -> List[str]:
    messages = []
    for mode, outcome in run.functional.items():
        if outcome.security_violations:
            first = outcome.security_violations[0]
            messages.append(
                f"{mode}: honest replay raised "
                f"{len(outcome.security_violations)} security violation(s), "
                f"first: {first}"
            )
        if outcome.mismatches:
            messages.append(
                f"{mode}: {outcome.mismatches} read(s) returned plaintext "
                f"differing from the shadow model"
            )
        if outcome.reads != outcome.fills_seen:
            messages.append(
                f"{mode}: {outcome.fills_seen} fill decisions but "
                f"{outcome.reads} functional reads completed"
            )
        if outcome.writes != outcome.writebacks_seen:
            messages.append(
                f"{mode}: {outcome.writebacks_seen} writeback decisions but "
                f"{outcome.writes} functional writes completed"
            )
        checked = outcome.mac_checks + outcome.mac_checks_avoided
        if checked != outcome.written_reads:
            messages.append(
                f"{mode}: {outcome.written_reads} reads of written memory "
                f"but {outcome.mac_checks} MAC checks + "
                f"{outcome.mac_checks_avoided} avoided = {checked}"
            )
        if mode == "pssm" and outcome.mac_checks_avoided:
            messages.append(
                f"pssm: avoided {outcome.mac_checks_avoided} MAC checks "
                f"(PSSM has no value verification; must always check)"
            )
        total = outcome.fills_seen + outcome.writebacks_seen
        if total != outcome.events_consumed:
            messages.append(
                f"{mode}: consumed {outcome.events_consumed} events but "
                f"classified {total}"
            )
        if outcome.events_consumed == len(run.log.events):
            if outcome.fills_seen != run.log.fill_sectors:
                messages.append(
                    f"{mode}: full log executed but saw "
                    f"{outcome.fills_seen} fills vs the log's "
                    f"{run.log.fill_sectors}"
                )
            if outcome.writebacks_seen != run.log.writeback_sectors:
                messages.append(
                    f"{mode}: full log executed but saw "
                    f"{outcome.writebacks_seen} writebacks vs the log's "
                    f"{run.log.writeback_sectors}"
                )
    return messages


def _check_recovery(run: MatrixRun) -> List[str]:
    outcome = run.recovery
    if outcome is None:
        return []
    messages = []
    if not outcome.crash_fired:
        messages.append(
            f"recovery probe planned a kill at op {outcome.crash_op} "
            f"but the crash never fired"
        )
        return messages
    if outcome.security_violations:
        first = outcome.security_violations[0]
        messages.append(
            f"honest crash/recover/replay raised "
            f"{len(outcome.security_violations)} security violation(s), "
            f"first: {first}"
        )
    if outcome.mismatches:
        messages.append(
            f"{outcome.mismatches} post-recovery read(s) returned "
            f"plaintext differing from the shadow model"
        )
    if not messages and not outcome.committed_match:
        messages.append(
            "recovered-and-replayed committed transaction count differs "
            "from the uncrashed run"
        )
    if not messages and not outcome.digest_match:
        messages.append(
            "recovered-and-replayed persistent state digest differs "
            "from the uncrashed run"
        )
    return messages


def _check_plutus_leq_pssm(run: MatrixRun) -> List[str]:
    baseline = run.results.get("pssm")
    if baseline is None:
        return []
    messages = []
    for key in CLAIM_BOUNDED_BY_PSSM:
        result = run.results.get(key)
        if result is None:
            continue
        if result.traffic.metadata_bytes > baseline.traffic.metadata_bytes:
            messages.append(
                f"{key} moved {result.traffic.metadata_bytes} metadata "
                f"bytes, exceeding pssm's "
                f"{baseline.traffic.metadata_bytes} on a workload-shaped log"
            )
    return messages


def _check_secure_metadata_present(run: MatrixRun) -> List[str]:
    if not run.log.events:
        return []
    messages = []
    for key, result in run.results.items():
        if key == "nosec":
            continue
        if result.traffic.metadata_bytes <= 0:
            messages.append(
                f"{key} moved no metadata bytes on a non-empty "
                f"workload-shaped log"
            )
    return messages


#: The declared invariant set, in reporting order.
INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "stream-quantum", True,
        "every stream's bytes equal 32 x its transaction count",
        _check_stream_quantum,
    ),
    Invariant(
        "data-accounting", True,
        "per-engine fills/writebacks and data transactions match the log "
        "(net of counter-overflow re-encryption)",
        _check_data_accounting,
    ),
    Invariant(
        "data-identity", True,
        "net data read/write transactions are identical across all engines",
        _check_data_identity,
    ),
    Invariant(
        "nosec-floor", True,
        "the insecure baseline moves zero metadata bytes",
        _check_nosec_floor,
    ),
    Invariant(
        "io-roundtrip", True,
        "replaying a dumped-and-reloaded log is byte-identical",
        _check_roundtrip,
    ),
    Invariant(
        "columnar-object-identity", True,
        "the vectorized columnar replay path is byte-identical to the "
        "scalar object path for every engine; the object path walks the "
        "log in global order, so this check (with the golden corpus) "
        "covers that replaying partition by partition changes nothing",
        _check_columnar_identity,
    ),
    Invariant(
        "functional-verify", True,
        "functional crypto verifies end-to-end and its MAC accounting "
        "closes against the log's fetch decisions",
        _check_functional,
    ),
    Invariant(
        "recovery-consistency", True,
        "crashing the recoverable engine mid-log, recovering, and "
        "replaying the remainder is byte-identical to the uncrashed run",
        _check_recovery,
    ),
    Invariant(
        "plutus-leq-pssm", False,
        "Plutus (and its value-only / common-counter ablations) moves no "
        "more metadata than PSSM on workload-shaped logs",
        _check_plutus_leq_pssm,
    ),
    Invariant(
        "secure-metadata-present", False,
        "secure engines move nonzero metadata on non-empty "
        "workload-shaped logs",
        _check_secure_metadata_present,
    ),
)


def check_run(run: MatrixRun) -> List[Violation]:
    """Evaluate every applicable invariant against one matrix run.

    Universal invariants always apply; claim invariants only when the
    run's log asserts ``claims_apply``.
    """
    violations: List[Violation] = []
    for invariant in INVARIANTS:
        if not invariant.universal and not run.claims_apply:
            continue
        for message in invariant.check(run):
            violations.append(Violation(invariant.name, message))
    return violations
