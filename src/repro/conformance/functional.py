"""Functional-crypto oracle: execute a log's fetch decisions for real.

The symbolic engines *account* traffic; :class:`SecureMemory` actually
encrypts, MACs, and tree-protects data. The conformance oracle bridges
the two: every fill/writeback decision recorded in a
:class:`~repro.gpu.simulator.MemoryEventLog` is executed against one
functional memory per partition, and an honest execution must verify
end to end — no :class:`~repro.common.errors.SecurityViolation`, every
read of previously written memory returning exactly the plaintext last
written there, and the MAC-check accounting closing (every read of
written memory either MAC-checked or value-verified).

Sector indices are folded into a bounded per-partition memory (the same
trick :func:`repro.faults.workload.ops_from_trace` uses) so a log that
touches a 128 MiB partition drives a tractable functional instance;
the shadow model tracks folded addresses, so aliasing introduced by the
fold never produces a false mismatch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import SecurityViolation
from repro.gpu.simulator import EventKind, MemoryEventLog
from repro.secure.functional import SECTOR_BYTES, SecureMemory

#: Default folded size of one partition's functional memory, in sectors.
DEFAULT_FOLD_SECTORS = 2048

#: Functional modes the oracle exercises: Plutus (AES-XTS + value cache)
#: and PSSM (counter mode + unconditional MAC).
FUNCTIONAL_MODES = ("plutus", "pssm")


@dataclass
class FunctionalOutcome:
    """What one functional mode observed while executing a log."""

    mode: str
    #: Events actually executed (the cap may stop short of the log).
    events_consumed: int = 0
    fills_seen: int = 0
    writebacks_seen: int = 0
    reads: int = 0
    writes: int = 0
    #: Reads that targeted previously written (folded) addresses.
    written_reads: int = 0
    mac_checks: int = 0
    mac_checks_avoided: int = 0
    #: Reads whose returned plaintext differed from the shadow model.
    mismatches: int = 0
    #: Security exceptions raised by honest (untampered) execution.
    security_violations: List[str] = field(default_factory=list)


def _fill_payload(mode: str, index: int, address: int) -> bytes:
    """Deterministic sector payload for events without values."""
    return hashlib.sha256(
        f"conform:{mode}:{index}:{address:#x}".encode("ascii")
    ).digest()


def execute_log(
    log: MemoryEventLog,
    mode: str,
    fold_sectors: int = DEFAULT_FOLD_SECTORS,
    max_events: Optional[int] = None,
) -> FunctionalOutcome:
    """Execute (a prefix of) the log's events against functional crypto.

    ``max_events`` caps the executed prefix — functional AES in pure
    Python costs milliseconds per sector, so large logs run a
    representative slice; the outcome records how much was consumed and
    the per-slice fill/writeback counts the invariants check against.
    """
    if fold_sectors <= 0:
        raise ValueError("fold_sectors must be positive")
    outcome = FunctionalOutcome(mode=mode)
    memories: Dict[int, SecureMemory] = {}
    shadows: Dict[int, Dict[int, bytes]] = {}
    size_bytes = fold_sectors * SECTOR_BYTES

    for index, event in enumerate(log.events.iter_events()):
        if max_events is not None and index >= max_events:
            break
        outcome.events_consumed += 1
        memory = memories.get(event.partition)
        if memory is None:
            memory = SecureMemory(
                size_bytes, mode=mode, label=f"conform-{mode}"
            )
            memories[event.partition] = memory
            shadows[event.partition] = {}
        shadow = shadows[event.partition]
        address = (event.sector_index % fold_sectors) * SECTOR_BYTES

        if event.kind is EventKind.WRITEBACK:
            outcome.writebacks_seen += 1
            data = event.values
            if data is None or len(data) != SECTOR_BYTES:
                data = _fill_payload(mode, index, address)
            try:
                memory.write(address, data)
            except SecurityViolation as exc:
                outcome.security_violations.append(
                    f"write op {index}: {exc}"
                )
                continue
            outcome.writes += 1
            shadow[address] = data
        else:
            outcome.fills_seen += 1
            expected = shadow.get(address)
            try:
                plaintext = memory.read(address, SECTOR_BYTES)
            except SecurityViolation as exc:
                outcome.security_violations.append(
                    f"read op {index}: {exc}"
                )
                continue
            outcome.reads += 1
            if expected is not None:
                outcome.written_reads += 1
                if plaintext != expected:
                    outcome.mismatches += 1
            elif plaintext != b"\x00" * SECTOR_BYTES:
                # Never-written memory must read as zeros.
                outcome.mismatches += 1

    for memory in memories.values():
        outcome.mac_checks += memory.mac_checks
        outcome.mac_checks_avoided += memory.mac_checks_avoided
    return outcome


#: Folded size of the crash-recovery probe's engine, in sectors. Much
#: smaller than :data:`DEFAULT_FOLD_SECTORS`: the recoverable engine
#: provisions (and recovery rebuilds) a persistent image proportional
#: to the memory size, and the probe runs three times per log.
RECOVERY_FOLD_SECTORS = 64


@dataclass
class RecoveryOutcome:
    """What the crash-recovery probe observed while executing a log."""

    events_consumed: int = 0
    writes: int = 0
    #: 0-based op index whose write transaction the probe tore.
    crash_op: Optional[int] = None
    #: Whether the planned mid-log kill actually fired.
    crash_fired: bool = False
    committed_match: bool = False
    digest_match: bool = False
    #: Post-recovery reads whose plaintext differed from the shadow.
    mismatches: int = 0
    #: Security exceptions raised by recovery or the honest replay.
    security_violations: List[str] = field(default_factory=list)


def execute_recovery_probe(
    log: MemoryEventLog,
    fold_sectors: int = RECOVERY_FOLD_SECTORS,
    max_events: Optional[int] = None,
) -> Optional[RecoveryOutcome]:
    """Crash the recoverable engine mid-log, recover, replay the rest.

    The log is distilled into one folded op stream and executed three
    ways: uncrashed (the reference digest), crashed — a simulated power
    loss that persists *nothing* during the middle write's WAL append —
    and recovered-then-replayed from the crash point. The recovered run
    must land byte-identical to the reference: same committed
    transaction count, same persistent-state digest, and every replayed
    read returning exactly what the shadow model expects. Returns
    ``None`` when the executed prefix contains no writebacks (there is
    no transaction to tear).
    """
    from repro.common.errors import CrashError
    from repro.mem.backing import NvmRegion
    from repro.secure.recoverable import RecoverableSecureMemory

    if fold_sectors <= 0:
        raise ValueError("fold_sectors must be positive")
    size_bytes = fold_sectors * SECTOR_BYTES

    ops: List[tuple] = []
    for index, event in enumerate(log.events.iter_events()):
        address = (event.sector_index % fold_sectors) * SECTOR_BYTES
        if event.kind is EventKind.WRITEBACK:
            data = event.values
            if data is None or len(data) != SECTOR_BYTES:
                data = _fill_payload("recoverable", index, address)
            ops.append(("write", address, data))
        else:
            ops.append(("read", address, b""))

    write_indices = [i for i, op in enumerate(ops) if op[0] == "write"]
    if not write_indices:
        return None
    if max_events is not None and len(ops) > max_events:
        # Benchmark logs flush writebacks at the end, so a plain prefix
        # may be write-free; center the bounded window on the middle
        # write instead (distilling is cheap — executing is not).
        mid = write_indices[len(write_indices) // 2]
        start = max(0, min(mid - max_events // 2, len(ops) - max_events))
        ops = ops[start:start + max_events]
        write_indices = [i for i, op in enumerate(ops) if op[0] == "write"]
        if not write_indices:
            return None

    outcome = RecoveryOutcome(events_consumed=len(ops))
    outcome.writes = len(write_indices)
    # Tear the middle write (1-based ordinal among the log's writes);
    # each write op appends exactly one WAL record, so counting
    # ``write:wal-append`` barriers identifies it.
    target_ordinal = len(write_indices) // 2 + 1
    outcome.crash_op = write_indices[target_ordinal - 1]

    reference = RecoverableSecureMemory(size_bytes)
    for kind, address, data in ops:
        if kind == "write":
            reference.write(address, data)
        else:
            reference.read(address, SECTOR_BYTES)
    ref_digest = reference.state_digest()
    ref_committed = reference.committed_seq

    region = NvmRegion(reference.nvm_bytes)
    seen = {"appends": 0}

    def kill(site: str, seq: int, pending) -> None:
        if site != "write:wal-append":
            return
        seen["appends"] += 1
        if seen["appends"] == target_ordinal:
            region.crash(())
            raise CrashError(
                f"probe kill at {site}", site=site, barrier_seq=seq
            )

    region.install_barrier_hook(kill)
    engine = RecoverableSecureMemory(size_bytes, nvm=region, fresh=True)
    try:
        for kind, address, data in ops:
            if kind == "write":
                engine.write(address, data)
            else:
                engine.read(address, SECTOR_BYTES)
    except CrashError:
        outcome.crash_fired = True
    region.install_barrier_hook(None)
    if not outcome.crash_fired:
        return outcome

    try:
        recovered = RecoverableSecureMemory.recover(
            region.persistent_image(), size_bytes=size_bytes
        )
    except SecurityViolation as exc:
        outcome.security_violations.append(f"recovery: {exc}")
        return outcome

    # Resume point: each write op commits exactly one transaction, so
    # the recovered count identifies the durable prefix; the shadow is
    # rebuilt from it and the remainder replays on the recovered engine.
    remaining = recovered.committed_seq
    shadow: Dict[int, bytes] = {}
    resume = 0
    if remaining:
        for i, (kind, address, data) in enumerate(ops):
            if kind != "write":
                continue
            shadow[address] = data
            remaining -= 1
            if remaining == 0:
                resume = i + 1
                break
        if remaining:
            outcome.security_violations.append(
                f"recovered {recovered.committed_seq} committed "
                f"transactions, more than the workload's "
                f"{len(write_indices)} writes"
            )
            return outcome
    try:
        for kind, address, data in ops[resume:]:
            if kind == "write":
                recovered.write(address, data)
                shadow[address] = data
            else:
                plaintext = recovered.read(address, SECTOR_BYTES)
                expected = shadow.get(address, b"\x00" * SECTOR_BYTES)
                if plaintext != expected:
                    outcome.mismatches += 1
    except SecurityViolation as exc:
        outcome.security_violations.append(f"replay: {exc}")
        return outcome
    outcome.committed_match = recovered.committed_seq == ref_committed
    outcome.digest_match = recovered.state_digest() == ref_digest
    return outcome


def execute_modes(
    log: MemoryEventLog,
    modes=FUNCTIONAL_MODES,
    fold_sectors: int = DEFAULT_FOLD_SECTORS,
    max_events: Optional[int] = None,
) -> Dict[str, FunctionalOutcome]:
    """Execute the log under every requested functional mode."""
    return {
        mode: execute_log(
            log, mode, fold_sectors=fold_sectors, max_events=max_events
        )
        for mode in modes
    }
