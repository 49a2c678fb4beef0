"""Crash-recoverable secure memory: persist ordering, WAL, recovery.

Plutus (like most GPU memory-security work) assumes counters, MACs, and
BMT nodes survive intact for the life of a run. Phoenix (Alwadi et al.)
and Freij et al. show what real deployments need on top: security
metadata must be *persistently secure* — a power loss mid-update must
never leave the memory in a state that silently decrypts to garbage or
accepts stale data. This module implements that discipline functionally
and symbolically:

* :class:`RecoverableSecureMemory` — a :class:`~repro.secure.functional.SecureMemory`
  whose untrusted surfaces live in a simulated NVM region
  (:class:`~repro.mem.backing.NvmRegion`). Every update runs as a
  write-ahead-logged transaction under a strict persist ordering::

      WAL append  →  barrier("write:wal-append")
      home writes →  barrier("write:home-apply")   (data, counters,
                                                    MACs, BMT nodes,
                                                    written bitmap)
      root slot   →  barrier("write:root-commit")  (alternating A/B)

  :meth:`recover` rebuilds a verified engine from the persistent image
  alone: pick the newest valid root slot, redo the (at most one)
  complete-but-uncommitted WAL record, rebuild volatile state, recompute
  the counter tree, and cross-check it against both the persisted node
  region and the committed root. Anything inconsistent raises
  :class:`~repro.common.errors.RecoveryError` — torn, but *detected*.

* :class:`RecoverableEngine` — the symbolic traffic model for the
  conformance matrix: PSSM's metadata organization plus a delta-style
  metadata log (one 32-byte log sector per journaled update) on the
  :data:`~repro.mem.traffic.Stream.METADATA_LOG_WRITE` stream.

The crash-point torture harness in :mod:`repro.faults.crashpoints`
enumerates every barrier site above (plus the read probe, WAL-reset
checkpoint, and recovery-redo sites) and proves the recovered-or-
detected property by systematically killing the engine at each one.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, RecoveryError
from repro.mem.backing import NvmRegion
from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.split_counter import SplitCounterConfig
from repro.secure.engine import MetadataCacheConfig
from repro.secure.functional import SECTOR_BYTES, SecureMemory
from repro.secure.pssm import PssmEngine

#: Region identifiers used in WAL record entries (docs/SCHEMAS.md
#: § Persisted metadata-log format).
REGION_DATA = 0
REGION_COUNTER = 1
REGION_MAC = 2
REGION_BMT = 3
REGION_BITMAP = 4
REGION_ROOT = 5

_WAL_MAGIC = b"WALR"
_SLOT_MAGIC = b"ROOT"
_WAL_HEADER_BYTES = 4 + 8 + 4 + 8  # magic | seq | payload_len | crc
_ENTRY_HEADER_BYTES = 1 + 8 + 4  # region | offset | length

#: Persist-barrier sites of the steady-state update path, in the order
#: one write transaction visits them. The torture sweep must cover all
#: of these (plus the recovery sites below) — tests assert against this
#: tuple, so treat it as part of the public contract.
UPDATE_SITES: Tuple[str, ...] = (
    "read:probe",
    "write:wal-append",
    "write:home-apply",
    "write:root-commit",
    "checkpoint:wal-reset",
)

#: Persist-barrier sites recovery itself executes while redoing an
#: uncommitted transaction (crash-during-recovery lands here).
RECOVERY_SITES: Tuple[str, ...] = (
    "recover:redo-apply",
    "recover:redo-commit",
)

#: The provisioning barrier: one-time formatting of a fresh region.
FORMAT_SITE = "format"


def _crc(*parts: bytes) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()[:8]


def _encode_entries(entries: List[Tuple[int, int, bytes]]) -> bytes:
    payload = bytearray()
    for region, offset, data in entries:
        payload.append(region)
        payload += offset.to_bytes(8, "little")
        payload += len(data).to_bytes(4, "little")
        payload += data
    return bytes(payload)


def _decode_entries(payload: bytes) -> List[Tuple[int, int, bytes]]:
    entries: List[Tuple[int, int, bytes]] = []
    pos = 0
    while pos < len(payload):
        if pos + _ENTRY_HEADER_BYTES > len(payload):
            raise ValueError("truncated WAL entry header")
        region = payload[pos]
        offset = int.from_bytes(payload[pos + 1 : pos + 9], "little")
        length = int.from_bytes(payload[pos + 9 : pos + 13], "little")
        pos += _ENTRY_HEADER_BYTES
        if pos + length > len(payload):
            raise ValueError("truncated WAL entry data")
        entries.append((region, offset, payload[pos : pos + length]))
        pos += length
    return entries


def _encode_record(seq: int, entries: List[Tuple[int, int, bytes]]) -> bytes:
    payload = _encode_entries(entries)
    seq_bytes = seq.to_bytes(8, "little")
    return (
        _WAL_MAGIC
        + seq_bytes
        + len(payload).to_bytes(4, "little")
        + _crc(seq_bytes, payload)
        + payload
    )


class RecoverableSecureMemory(SecureMemory):
    """A functional secure memory that survives (simulated) power loss.

    All untrusted state — ciphertext, counter-group blobs, MAC tags, BMT
    nodes, the written-sector bitmap, dual root slots, and the write-
    ahead metadata log — lives in one :class:`NvmRegion`; the in-memory
    structures inherited from :class:`SecureMemory` act as the volatile
    working copy and are rebuilt from NVM by :meth:`recover`.

    The value cache is deliberately disabled: it is volatile by nature,
    so a recovered instance would verify reads differently from an
    uncrashed one and break the byte-identical recovery invariant the
    conformance matrix enforces.

    ``label`` defaults to ``"recoverable"``; ``scrub`` controls whether
    recovery re-verifies the MAC of every written sector (on by
    default — the torture memories are small).
    """

    def __init__(
        self,
        size_bytes: int,
        mode: str = "plutus",
        key: bytes = b"\x11" * 64,
        mac_key: bytes = b"\x22" * 32,
        mac_tag_bytes: int = 8,
        counter_config: Optional[SplitCounterConfig] = None,
        tree_arity: int = 16,
        label: Optional[str] = None,
        wal_bytes: Optional[int] = None,
        scrub: bool = True,
        nvm: Optional[NvmRegion] = None,
        fresh: bool = False,
    ) -> None:
        counter_config = counter_config or SplitCounterConfig()
        super().__init__(
            size_bytes,
            mode=mode,
            key=key,
            mac_key=mac_key,
            mac_tag_bytes=mac_tag_bytes,
            counter_config=counter_config,
            value_cache_config=None,
            tree_arity=tree_arity,
            label=label or "recoverable",
        )
        cfg = counter_config
        self._mac_tag_bytes = mac_tag_bytes
        self._num_sectors = size_bytes // SECTOR_BYTES
        self._num_groups = self.tree.num_leaves
        self._blob_bytes = 8 + 2 * cfg.sectors_per_group
        self._hash_bytes = self.tree.hash_bytes
        self._slot_bytes = 4 + 8 + self._hash_bytes + 8

        # -- NVM address map (contiguous regions) -------------------------
        offset = 0
        self._data_off = offset
        offset += size_bytes
        self._blob_off = offset
        offset += self._num_groups * self._blob_bytes
        self._mac_off = offset
        offset += self._num_sectors * mac_tag_bytes
        self._node_off = offset
        self._node_level_off: List[int] = []
        for level in self.tree.levels:
            self._node_level_off.append(offset)
            offset += len(level) * self._hash_bytes
        self._bitmap_off = offset
        offset += -(-self._num_sectors // 8)
        self._slot_off = offset
        offset += 2 * self._slot_bytes
        self._wal_off = offset
        max_record = self._max_record_bytes()
        if wal_bytes is None:
            wal_bytes = max(4096, 4 * max_record)
        if wal_bytes < max_record:
            raise ConfigurationError(
                f"WAL of {wal_bytes} bytes cannot hold one worst-case "
                f"record of {max_record} bytes"
            )
        self._wal_capacity = wal_bytes
        offset += wal_bytes
        self.nvm_bytes = offset

        self._wal_tail = 0
        self._committed_seq = 0
        #: Operation class of the most recent public operation; the
        #: crash-point enumerator reads this at each barrier ("read",
        #: "write", "bmt-update", "writeback", "recovery").
        self.last_op_class = "format"

        if nvm is None:
            self.nvm = NvmRegion(self.nvm_bytes)
            self._format()
        else:
            if nvm.size_bytes != self.nvm_bytes:
                raise RecoveryError(
                    f"persistent image is {nvm.size_bytes} bytes; this "
                    f"geometry needs {self.nvm_bytes}"
                )
            self.nvm = nvm
            if fresh:
                # Caller supplied a blank region (usually with a crash
                # hook pre-installed so provisioning itself can be
                # tortured); format it instead of recovering.
                self._format()
            else:
                self._recover(scrub=scrub)

    # -- layout helpers --------------------------------------------------------

    def _max_record_bytes(self) -> int:
        spg = self.counters.config.sectors_per_group
        # Worst case: a minor overflow re-encrypts a whole group — one
        # ciphertext + tag per sector, the group blob, the tree path,
        # one bitmap byte, and the root slot.
        entry = _ENTRY_HEADER_BYTES
        return (
            _WAL_HEADER_BYTES
            + spg * (entry + SECTOR_BYTES)
            + spg * (entry + self._mac_tag_bytes)
            + (entry + self._blob_bytes)
            + self.tree.height * (entry + self._hash_bytes)
            + (entry + 1)
            + (entry + self._slot_bytes)
        )

    def _node_addr(self, level: int, index: int) -> int:
        return self._node_level_off[level] + index * self._hash_bytes

    def _slot_addr(self, seq: int) -> int:
        return self._slot_off + (seq % 2) * self._slot_bytes

    def _encode_slot(self, seq: int, root: bytes) -> bytes:
        seq_bytes = seq.to_bytes(8, "little")
        return _SLOT_MAGIC + seq_bytes + root + _crc(b"slot", seq_bytes, root)

    def _decode_slot(self, raw: bytes) -> Optional[Tuple[int, bytes]]:
        if raw[:4] != _SLOT_MAGIC:
            return None
        seq_bytes = raw[4:12]
        root = raw[12 : 12 + self._hash_bytes]
        crc = raw[12 + self._hash_bytes : 20 + self._hash_bytes]
        if crc != _crc(b"slot", seq_bytes, root):
            return None
        return int.from_bytes(seq_bytes, "little"), root

    # -- provisioning ---------------------------------------------------------

    def _format(self) -> None:
        """One-time provisioning of a fresh region (assumed atomic)."""
        for level, nodes in enumerate(self.tree.levels):
            for index, node in enumerate(nodes):
                self.nvm.write(self._node_addr(level, index), node)
        self.nvm.write(self._slot_addr(0), self._encode_slot(0, self.tree.root))
        self.nvm.persist_barrier(FORMAT_SITE)

    # -- the write transaction -------------------------------------------------

    def _write_sector(self, address: int, plaintext: bytes) -> None:
        self.writes += 1
        self.op_index += 1
        idx = self._sector_index(address)
        cfg = self.counters.config
        self.last_op_class = "write"

        group = self.counters.group_of(idx)
        base = group * cfg.sectors_per_group
        old_counters = {
            s: self.counters.combined(s)
            for s in range(base, base + cfg.sectors_per_group)
        }

        entries: List[Tuple[int, int, bytes]] = []
        outcome = self.counters.increment(idx)
        if outcome.minor_overflowed:
            # A major bump rewrites the whole group — the BMT-update
            # heavy class of the crash taxonomy.
            self.last_op_class = "bmt-update"
            self._reencrypt_group_logged(
                outcome.reencrypted_sectors, old_counters, idx, entries
            )

        counter = self.counters.combined(idx)
        ciphertext = self._encrypt(plaintext, address, counter)
        self.dram.write(address, ciphertext)
        entries.append((REGION_DATA, self._data_off + address, ciphertext))
        tag = self.mac_store.update(
            idx, plaintext, address=address, counter=counter
        )
        entries.append(
            (REGION_MAC, self._mac_off + idx * self._mac_tag_bytes, tag)
        )

        if idx not in self._written:
            self._written.add(idx)
            byte_addr = self._bitmap_off + idx // 8
            current = self.nvm.read(byte_addr, 1)[0]
            entries.append(
                (REGION_BITMAP, byte_addr, bytes([current | (1 << (idx % 8))]))
            )
        self._publish_group_logged(group, entries)
        self._commit_transaction(entries)

    def _reencrypt_group_logged(
        self,
        sectors,
        old_counters: Dict[int, int],
        skip: int,
        entries: List[Tuple[int, int, bytes]],
    ) -> None:
        for s in sectors:
            if s == skip or s not in self._written:
                continue
            address = s * SECTOR_BYTES
            if address >= self.size_bytes:
                continue
            old_ct = self.dram.read(address, SECTOR_BYTES)
            plaintext = self._decrypt(old_ct, address, old_counters[s])
            new_counter = self.counters.combined(s)
            new_ct = self._encrypt(plaintext, address, new_counter)
            self.dram.write(address, new_ct)
            entries.append((REGION_DATA, self._data_off + address, new_ct))
            tag = self.mac_store.update(
                s, plaintext, address=address, counter=new_counter
            )
            entries.append(
                (REGION_MAC, self._mac_off + s * self._mac_tag_bytes, tag)
            )

    def _publish_group_logged(
        self, group: int, entries: List[Tuple[int, int, bytes]]
    ) -> None:
        blob = self._serialize_group(group)
        self.counter_blobs[group] = blob
        self.tree.update_leaf(group, blob)
        self._trusted_root = self.tree.root
        entries.append(
            (REGION_COUNTER, self._blob_off + group * self._blob_bytes, blob)
        )
        child = group
        entries.append(
            (REGION_BMT, self._node_addr(0, group), self.tree.levels[0][group])
        )
        for level in range(1, self.tree.height):
            child //= self.tree.arity
            entries.append(
                (REGION_BMT, self._node_addr(level, child),
                 self.tree.levels[level][child])
            )

    def _commit_transaction(
        self, home_entries: List[Tuple[int, int, bytes]]
    ) -> None:
        """Run the three-barrier persist discipline for one transaction."""
        seq = self._committed_seq + 1
        slot_entry = (
            REGION_ROOT,
            self._slot_addr(seq),
            self._encode_slot(seq, self.tree.root),
        )
        record = _encode_record(seq, home_entries + [slot_entry])
        if self._wal_tail + len(record) > self._wal_capacity:
            self._checkpoint_wal()
        self.nvm.write(self._wal_off + self._wal_tail, record)
        self.nvm.persist_barrier("write:wal-append")
        self._wal_tail += len(record)
        for _region, offset, data in home_entries:
            self.nvm.write(offset, data)
        self.nvm.persist_barrier("write:home-apply")
        self.nvm.write(slot_entry[1], slot_entry[2])
        self.nvm.persist_barrier("write:root-commit")
        self._committed_seq = seq

    # -- read probe ------------------------------------------------------------

    def _read_sector(self, address: int) -> bytes:
        # Reads write nothing durable; the barrier is an (empty) kill
        # site so the torture sweep covers the read op class too.
        self.last_op_class = "read"
        self.nvm.persist_barrier("read:probe")
        return super()._read_sector(address)

    # -- checkpoint (writeback / kernel boundary) -------------------------------

    def checkpoint(self) -> None:
        """Truncate the WAL: everything committed is home already.

        The root slot is already current (it commits per transaction),
        so a checkpoint is pure log reclamation — the ``writeback`` op
        class of the crash taxonomy. Crashing at any point around it is
        harmless: a stale-but-valid WAL only means redundant idempotent
        redo candidates, all with ``seq <= committed``.
        """
        self.last_op_class = "writeback"
        self._checkpoint_wal()

    def _checkpoint_wal(self) -> None:
        self.nvm.write(self._wal_off, b"\x00" * 4)
        self.nvm.persist_barrier("checkpoint:wal-reset")
        self._wal_tail = 0

    # -- recovery ---------------------------------------------------------------

    @classmethod
    def recover(cls, nvm: NvmRegion, **kwargs) -> "RecoverableSecureMemory":
        """Rebuild a verified engine from a persistent image.

        *nvm* is typically ``crashed.nvm.persistent_image()``. Keyword
        arguments must describe the same geometry/keys the crashed
        instance was built with. Raises
        :class:`~repro.common.errors.RecoveryError` when the image
        cannot be restored to a verified state (torn-but-detected), and
        propagates :class:`~repro.common.errors.CrashError` if a crash
        hook on *nvm* kills the redo mid-flight — recovery is itself
        crash-consistent and can simply be run again.
        """
        return cls(nvm=nvm, **kwargs)

    def _read_slot(self, index: int) -> Optional[Tuple[int, bytes]]:
        raw = self.nvm.read(
            self._slot_off + index * self._slot_bytes, self._slot_bytes
        )
        return self._decode_slot(raw)

    def _scan_wal(self) -> Tuple[List[Tuple[int, List[Tuple[int, int, bytes]]]], int]:
        """Parse the valid WAL prefix: ``([(seq, entries), ...], tail)``.

        Scanning stops at the first structurally invalid record — a
        zeroed head (fresh or checkpointed log), a torn append (bad
        checksum), or a sequence break. Everything after that point is
        unreachable garbage by construction.
        """
        records: List[Tuple[int, List[Tuple[int, int, bytes]]]] = []
        offset = 0
        prev_seq: Optional[int] = None
        while offset + _WAL_HEADER_BYTES <= self._wal_capacity:
            raw = self.nvm.read(self._wal_off + offset, _WAL_HEADER_BYTES)
            if raw[:4] != _WAL_MAGIC:
                break
            seq = int.from_bytes(raw[4:12], "little")
            payload_len = int.from_bytes(raw[12:16], "little")
            if offset + _WAL_HEADER_BYTES + payload_len > self._wal_capacity:
                break
            payload = self.nvm.read(
                self._wal_off + offset + _WAL_HEADER_BYTES, payload_len
            )
            if raw[16:24] != _crc(raw[4:12], payload):
                break
            if prev_seq is not None and seq != prev_seq + 1:
                break
            try:
                entries = _decode_entries(payload)
            except ValueError:
                break
            records.append((seq, entries))
            prev_seq = seq
            offset += _WAL_HEADER_BYTES + payload_len
        return records, offset

    def _entry_in_bounds(self, region: int, offset: int, data: bytes) -> bool:
        bounds = {
            REGION_DATA: (self._data_off, self._blob_off),
            REGION_COUNTER: (self._blob_off, self._mac_off),
            REGION_MAC: (self._mac_off, self._node_off),
            REGION_BMT: (self._node_off, self._bitmap_off),
            REGION_BITMAP: (self._bitmap_off, self._slot_off),
            REGION_ROOT: (self._slot_off, self._wal_off),
        }.get(region)
        if bounds is None:
            return False
        lo, hi = bounds
        return lo <= offset and offset + len(data) <= hi

    def _recover(self, scrub: bool = True) -> None:
        self.last_op_class = "recovery"
        slots = [self._read_slot(0), self._read_slot(1)]
        valid = [s for s in slots if s is not None]
        if not valid:
            raise RecoveryError(
                "no valid root slot in the persistent image "
                "(crash before provisioning completed?)"
            )
        committed_seq, _root = max(valid, key=lambda s: s[0])

        records, wal_tail = self._scan_wal()
        pending = [(seq, e) for seq, e in records if seq > committed_seq]
        if len(pending) > 1:
            raise RecoveryError(
                f"metadata log holds {len(pending)} transactions past the "
                f"committed root (seq {committed_seq}); the persist "
                f"ordering allows at most one"
            )
        if pending:
            seq, entries = pending[0]
            if seq != committed_seq + 1:
                raise RecoveryError(
                    f"uncommitted log record skips from seq "
                    f"{committed_seq} to {seq}"
                )
            for region, offset, data in entries:
                if not self._entry_in_bounds(region, offset, data):
                    raise RecoveryError(
                        f"log record {seq} writes outside region {region} "
                        f"bounds at offset {offset:#x}"
                    )
            # Redo under the same discipline: home writes, barrier, root
            # slot, barrier — so a crash *during* recovery is just
            # another recoverable crash.
            for region, offset, data in entries:
                if region != REGION_ROOT:
                    self.nvm.write(offset, data)
            self.nvm.persist_barrier("recover:redo-apply")
            for region, offset, data in entries:
                if region == REGION_ROOT:
                    self.nvm.write(offset, data)
            self.nvm.persist_barrier("recover:redo-commit")
            committed_seq = seq
        self._wal_tail = wal_tail
        self._committed_seq = committed_seq

        # -- rebuild volatile state from the (now consistent) image ------
        bitmap = self.nvm.read(self._bitmap_off, -(-self._num_sectors // 8))
        for idx in range(self._num_sectors):
            if (bitmap[idx // 8] >> (idx % 8)) & 1:
                self._written.add(idx)
                address = idx * SECTOR_BYTES
                self.dram.write(
                    address,
                    self.nvm.read(self._data_off + address, SECTOR_BYTES),
                )
                self.mac_store.load_tag(
                    idx,
                    self.nvm.read(
                        self._mac_off + idx * self._mac_tag_bytes,
                        self._mac_tag_bytes,
                    ),
                )
        cfg = self.counters.config
        for group in range(self._num_groups):
            blob = self.nvm.read(
                self._blob_off + group * self._blob_bytes, self._blob_bytes
            )
            if not any(blob):
                continue
            major = int.from_bytes(blob[:8], "little")
            base = group * cfg.sectors_per_group
            for s in range(cfg.sectors_per_group):
                minor = int.from_bytes(blob[8 + 2 * s : 10 + 2 * s], "little")
                self.counters.load(base + s, major, minor)
            self.counter_blobs[group] = blob
            self.tree.update_leaf(group, blob)

        # -- verify: rebuilt tree vs persisted nodes vs committed root ---
        for level, nodes in enumerate(self.tree.levels):
            for index, node in enumerate(nodes):
                persisted = self.nvm.read(
                    self._node_addr(level, index), self._hash_bytes
                )
                if persisted != node:
                    raise RecoveryError(
                        f"persisted BMT node ({level},{index}) disagrees "
                        f"with the tree rebuilt from counter blobs",
                        stream="bmt",
                    )
        slot = self._read_slot(committed_seq % 2)
        if slot is None or slot[0] != committed_seq:
            raise RecoveryError(
                f"root slot for committed seq {committed_seq} is missing "
                f"or stale after redo"
            )
        if slot[1] != self.tree.root:
            raise RecoveryError(
                "committed root does not match the tree rebuilt from "
                "persisted counter blobs",
                stream="bmt",
            )
        self._trusted_root = self.tree.root

        if scrub:
            self._scrub()

    def _scrub(self) -> None:
        """Re-verify every written sector's MAC against the image."""
        for idx in sorted(self._written):
            address = idx * SECTOR_BYTES
            counter = self.counters.combined(idx)
            plaintext = self._decrypt(
                self.dram.read(address, SECTOR_BYTES), address, counter
            )
            if not self.mac_store.verify(
                idx, plaintext, address=address, counter=counter
            ):
                raise RecoveryError(
                    f"recovery scrub: MAC verification failed at "
                    f"{address:#x} (engine={self.label})",
                    address=address,
                    stream="mac",
                )

    # -- observability ----------------------------------------------------------

    @property
    def committed_seq(self) -> int:
        """Durable transaction count (writes committed to the root slot)."""
        return self._committed_seq

    @property
    def wal_tail(self) -> int:
        """Current append offset inside the WAL region (for tests)."""
        return self._wal_tail

    def state_digest(self) -> str:
        """Digest of the durable logical state (excludes the WAL).

        Two runs that committed the same transactions must agree on this
        byte-for-byte: data ciphertext, counter blobs, MAC tags, BMT
        nodes, written bitmap, the committed root, and the committed
        sequence number. The WAL region and raw slot bytes are excluded
        on purpose — log truncation points differ across crash/resume
        histories without changing the logical state.
        """
        digest = hashlib.sha256()
        for start, end in (
            (self._data_off, self._blob_off),
            (self._blob_off, self._mac_off),
            (self._mac_off, self._node_off),
            (self._node_off, self._bitmap_off),
            (self._bitmap_off, self._slot_off),
        ):
            digest.update(self.nvm.read_persistent(start, end - start))
        slot = self._read_slot(self._committed_seq % 2)
        digest.update(self._committed_seq.to_bytes(8, "little"))
        digest.update(slot[1] if slot else b"")
        return digest.hexdigest()


class RecoverableEngine(PssmEngine):
    """Symbolic traffic model of the crash-recoverable design.

    PSSM's sectored metadata organization plus a delta-style write-ahead
    metadata log: every journaled update (counter/MAC/BMT delta of one
    writeback) appends one 32-byte log sector before its home update, a
    minor overflow journals the extra group rewrite, and the end-of-
    kernel flush appends one commit record. Log traffic rides the
    dedicated :data:`~repro.mem.traffic.Stream.METADATA_LOG_WRITE`
    stream so reports can show the cost of crash consistency separately.
    """

    name = "recoverable"

    def __init__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
        mac_tag_bytes: int = 8,
        cache_config: Optional[MetadataCacheConfig] = None,
        counter_config=None,
    ) -> None:
        super().__init__(
            partition_id,
            data_sectors,
            traffic,
            mac_tag_bytes=mac_tag_bytes,
            cache_config=cache_config or MetadataCacheConfig(),
            counter_config=counter_config,
        )

    def _log_append(self, count: int = 1) -> None:
        self.stats.wal_appends += count
        self.traffic.record(
            Stream.METADATA_LOG_WRITE, count * SECTOR_BYTES,
            transactions=count,
        )

    def on_writeback_batch(self, sector_indices, values) -> None:
        super().on_writeback_batch(sector_indices, values)
        # One append journals each writeback ahead of its home update;
        # the log stream and its count are order-free sums, so the run
        # posts them together.
        self._log_append(len(sector_indices))

    def _reencrypt_group(self, reencrypted_sectors) -> None:
        # A minor overflow journals the extra group rewrite.
        self._log_append()
        super()._reencrypt_group(reencrypted_sectors)

    def finalize(self) -> None:
        super().finalize()
        # The kernel-boundary flush commits the log (root-slot record).
        self._log_append()
