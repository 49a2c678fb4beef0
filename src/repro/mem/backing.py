"""Sparse byte-addressable backing store.

Functional mode (real encryption, real MACs, tamper-detection tests)
needs an actual memory image for ciphertext, counters, MACs, and tree
nodes. The store is sparse — untouched regions read as zero — so a 4 GiB
protected range costs only what the test actually writes.

The store deliberately has *no* security: it models the untrusted DRAM
an attacker can read and modify at will, and exposes :meth:`corrupt` for
the attack harness.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A write interposer: receives ``(address, data)`` and returns the
#: bytes to actually store, or ``None`` to drop the write entirely.
WriteHook = Callable[[int, bytes], Optional[bytes]]

#: A persist-barrier interposer for :class:`NvmRegion`: receives the
#: barrier's site label, its global sequence number, and the pending
#: (address, data) writes about to be drained to the persistent image.
#: A crash harness persists a chosen subset via :meth:`NvmRegion.crash`
#: and raises :class:`~repro.common.errors.CrashError`; returning
#: normally lets the barrier complete.
BarrierHook = Callable[[str, int, Tuple[Tuple[int, bytes], ...]], None]


class BackingStore:
    """Sparse memory image organized as fixed-size chunks."""

    def __init__(self, size_bytes: int, chunk_bytes: int = 4096) -> None:
        if size_bytes <= 0 or chunk_bytes <= 0:
            raise ValueError("sizes must be positive")
        self.size_bytes = size_bytes
        self.chunk_bytes = chunk_bytes
        self._chunks: Dict[int, bytearray] = {}
        #: Fault-injection interposer on the write path (see
        #: :meth:`install_write_hook`); ``None`` means writes land as-is.
        self.write_hook: Optional[WriteHook] = None
        #: Writes suppressed by a hook (diagnostics for the campaigns).
        self.dropped_writes = 0

    def install_write_hook(self, hook: Optional[WriteHook]) -> None:
        """Interpose *hook* on every write (``None`` uninstalls).

        This is the fault-injection surface for *dropped* or *mangled*
        DRAM stores: the engine above stays unchanged while the hook
        decides what actually reaches the memory image.
        """
        self.write_hook = hook

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size_bytes:
            raise ValueError(
                f"range [{address:#x}, {address + length:#x}) outside store "
                f"of {self.size_bytes:#x} bytes"
            )

    def read(self, address: int, length: int) -> bytes:
        """Read *length* bytes; unwritten space reads as zeros."""
        self._check_range(address, length)
        out = bytearray(length)
        pos = 0
        while pos < length:
            addr = address + pos
            chunk_id, offset = divmod(addr, self.chunk_bytes)
            take = min(length - pos, self.chunk_bytes - offset)
            chunk = self._chunks.get(chunk_id)
            if chunk is not None:
                out[pos : pos + take] = chunk[offset : offset + take]
            pos += take
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write *data* at *address* (subject to any installed hook)."""
        self._check_range(address, len(data))
        if self.write_hook is not None:
            hooked = self.write_hook(address, data)
            if hooked is None:
                self.dropped_writes += 1
                return
            if len(hooked) != len(data):
                raise ValueError("write hook must preserve data length")
            data = hooked
        self._store(address, data)

    def _store(self, address: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            addr = address + pos
            chunk_id, offset = divmod(addr, self.chunk_bytes)
            take = min(len(data) - pos, self.chunk_bytes - offset)
            chunk = self._chunks.get(chunk_id)
            if chunk is None:
                chunk = bytearray(self.chunk_bytes)
                self._chunks[chunk_id] = chunk
            chunk[offset : offset + take] = data[pos : pos + take]
            pos += take

    def corrupt(self, address: int, xor_mask: bytes) -> None:
        """Attacker primitive: XOR *xor_mask* into memory at *address*.

        Flipping ciphertext bits in place models the physical tampering
        the threat model defends against. Bypasses any installed write
        hook: the attacker touches the array directly, not the bus.
        """
        self._check_range(address, len(xor_mask))
        current = self.read(address, len(xor_mask))
        self._store(address, bytes(a ^ b for a, b in zip(current, xor_mask)))

    def splice(self, dst: int, src: int, length: int) -> None:
        """Attacker primitive: copy ciphertext between addresses."""
        self._check_range(dst, length)
        self._store(dst, self.read(src, length))

    @property
    def touched_bytes(self) -> int:
        """Bytes of storage actually materialized (for tests)."""
        return len(self._chunks) * self.chunk_bytes

    def clone(self) -> "BackingStore":
        """Deep copy of the image (hooks are not carried over)."""
        twin = BackingStore(self.size_bytes, self.chunk_bytes)
        twin._chunks = {cid: bytearray(c) for cid, c in self._chunks.items()}
        return twin


class NvmRegion:
    """A byte range with an explicit volatile/persistent split.

    Models battery-less NVM behind a write-back path: :meth:`write`
    lands in the *volatile* image (write buffers, caches) and is queued;
    only :meth:`persist_barrier` drains queued writes into the
    *persistent* image, which is all that survives a crash. Reads are
    read-your-writes against the volatile image.

    Barriers carry a *site* label (e.g. ``"write:wal-append"``) and a
    monotonically increasing sequence number. The crash-point torture
    harness interposes a :data:`BarrierHook` to enumerate sites and to
    kill the machine mid-update: the hook persists an arbitrary subset
    (possibly byte-truncated — a torn write) of the pending writes via
    :meth:`crash` and raises :class:`~repro.common.errors.CrashError`.
    """

    def __init__(self, size_bytes: int, chunk_bytes: int = 4096) -> None:
        self.size_bytes = size_bytes
        self.persistent = BackingStore(size_bytes, chunk_bytes)
        self.volatile = BackingStore(size_bytes, chunk_bytes)
        self._pending: List[Tuple[int, bytes]] = []
        self.barrier_hook: Optional[BarrierHook] = None
        #: Global barrier counter (part of the durable discipline's
        #: observable surface; survives deepcopy-based state forking).
        self.barrier_seq = 0
        #: Lifetime statistics.
        self.persist_barriers = 0
        self.persisted_writes = 0
        self.crashed = False

    def install_barrier_hook(self, hook: Optional[BarrierHook]) -> None:
        """Interpose *hook* on every persist barrier (``None`` removes)."""
        self.barrier_hook = hook

    def write(self, address: int, data: bytes) -> None:
        """Buffer a write: visible to reads, not yet durable."""
        self.volatile.write(address, data)
        self._pending.append((address, bytes(data)))

    def read(self, address: int, length: int) -> bytes:
        """Read-your-writes view (volatile image)."""
        return self.volatile.read(address, length)

    def read_persistent(self, address: int, length: int) -> bytes:
        """What a post-crash reader would see at *address*."""
        return self.persistent.read(address, length)

    def persist_barrier(self, site: str) -> None:
        """Drain every pending write to the persistent image.

        The installed hook (if any) runs *before* the drain, while the
        pending set is still only volatile — exactly the window a real
        power loss would tear.
        """
        self.barrier_seq += 1
        if self.barrier_hook is not None:
            self.barrier_hook(site, self.barrier_seq, tuple(self._pending))
        for address, data in self._pending:
            self.persistent.write(address, data)
            self.persisted_writes += 1
        self.persist_barriers += 1
        self._pending.clear()

    def crash(
        self, persisted: Sequence[Tuple[int, bytes]] = ()
    ) -> None:
        """Simulate power loss: keep only *persisted* of the pending set.

        *persisted* entries may be byte-truncated prefixes of pending
        writes (a torn write). Afterwards the volatile image is reset to
        the persistent one and the pending queue is dropped — the region
        is what a cold reboot would find.
        """
        for address, data in persisted:
            if data:
                self.persistent.write(address, data)
        self._pending.clear()
        self.volatile = self.persistent.clone()
        self.crashed = True

    def persistent_image(self) -> "NvmRegion":
        """A fresh region holding only the durable state (for recovery)."""
        twin = NvmRegion(self.size_bytes, self.persistent.chunk_bytes)
        twin.persistent = self.persistent.clone()
        twin.volatile = self.persistent.clone()
        return twin
