"""Traces: the interface between workloads and the simulator.

A trace is a sequence of coalesced L2 accesses. Each access names a
128-byte line, a mask of touched 32-byte sectors, a direction, and — for
the sectors it touches — the 32-byte value images the access observes
(reads) or produces (writes). Values are what drive Plutus's value
cache; traces without values still exercise every non-value mechanism.

A :class:`Trace` holds its accesses as columns, because traces run to
hundreds of thousands of accesses:

* ``line_addrs`` (int64), ``sector_masks`` (uint8) and ``writes``
  (bool), one entry per access;
* for a trace with values, ``images``: one ``(rows, 8)`` little-endian
  uint32 matrix with one row per selected sector, access by access and
  in slot order. ``first_rows`` gives each access's first row, and the
  per-row ``present`` flag marks the sectors that carry an image (the
  text format writes ``-`` for the others). A trace without values has
  no matrix.

Generation, the L2 pass, the value-reuse study and the statistics read
the columns. Iterating a trace builds one :class:`TraceAccess` record
per access on demand, for readers off the hot path; a trace built from
records is converted to columns once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.common.bitops import popcount
from repro.common.errors import TraceError

#: Per-sector payload: (sector slot within the line, 32-byte image).
SectorValues = Tuple[int, bytes]

#: Sector mask -> how many sectors it selects.
SECTOR_COUNTS = np.array([popcount(m) for m in range(16)], dtype=np.int64)
#: Sector mask -> the slots (0..3) it selects, in ascending order.
MASK_SLOTS = tuple(
    tuple(slot for slot in range(4) if (mask >> slot) & 1)
    for mask in range(16)
)


def check_access(line_addr: int, sector_mask: int) -> None:
    """Raise :class:`TraceError` unless the access names an aligned line
    that fits the int64 address column and selects one to four sectors."""
    if line_addr < 0 or line_addr % 128 != 0:
        raise TraceError(f"line address {line_addr:#x} not 128B aligned")
    if line_addr >= 1 << 63:
        raise TraceError(f"line address {line_addr:#x} exceeds 63 bits")
    if not 0 < sector_mask < 16:
        raise TraceError(f"sector mask {sector_mask:#06b} out of range")


class TraceAccess:
    """One coalesced memory access issued to the L2, as a record."""

    __slots__ = ("line_addr", "sector_mask", "write", "values")

    def __init__(
        self,
        line_addr: int,
        sector_mask: int,
        write: bool,
        values: Optional[Sequence[SectorValues]] = None,
    ) -> None:
        check_access(line_addr, sector_mask)
        if values is not None:
            for slot, image in values:
                if not (sector_mask >> slot) & 1:
                    raise TraceError(f"values given for unselected sector {slot}")
                if len(image) != 32:
                    raise TraceError("sector image must be 32 bytes")
        self.line_addr = line_addr
        self.sector_mask = sector_mask
        self.write = bool(write)
        self.values = tuple(values) if values is not None else None

    @property
    def sector_count(self) -> int:
        return popcount(self.sector_mask)

    def sectors(self) -> Iterable[int]:
        """Yield the selected sector slots (0..3)."""
        return iter(MASK_SLOTS[self.sector_mask])

    def value_for(self, slot: int) -> Optional[bytes]:
        if self.values is None:
            return None
        for s, image in self.values:
            if s == slot:
                return image
        return None

    def __repr__(self) -> str:
        kind = "W" if self.write else "R"
        return (
            f"TraceAccess({kind} {self.line_addr:#x} "
            f"mask={self.sector_mask:04b})"
        )


class Trace:
    """A named access stream, as columns, with the profile facts the
    model needs.

    ``Trace(name, accesses=records, ...)`` converts :class:`TraceAccess`
    records; :meth:`from_columns` takes the columns themselves.
    """

    def __init__(
        self,
        name: str,
        accesses: Iterable[TraceAccess] = (),
        memory_intensity: float = 0.8,
        instructions: int = 0,
        counter_warmup_passes: int = 3,
    ) -> None:
        records = list(accesses)
        line_addrs = np.array([a.line_addr for a in records], dtype=np.int64)
        sector_masks = np.array(
            [a.sector_mask for a in records], dtype=np.uint8
        )
        writes = np.array([a.write for a in records], dtype=bool)
        images = present = None
        if any(a.values is not None for a in records):
            counts = SECTOR_COUNTS[sector_masks]
            buffer = bytearray(32 * int(counts.sum()))
            present = np.zeros(len(buffer) // 32, dtype=bool)
            row = 0
            for access, count in zip(records, counts.tolist()):
                for slot, image in access.values or ():
                    at = row + popcount(access.sector_mask & ((1 << slot) - 1))
                    if not present[at]:  # the first image of a slot wins
                        buffer[32 * at:32 * at + 32] = image
                        present[at] = True
                row += count
            images = np.frombuffer(buffer, dtype="<u4").reshape(-1, 8)
        self._assign(name, line_addrs, sector_masks, writes, images, present,
                     memory_intensity, instructions, counter_warmup_passes)

    @classmethod
    def from_columns(
        cls,
        name: str,
        line_addrs: np.ndarray,
        sector_masks: np.ndarray,
        writes: np.ndarray,
        images: Optional[np.ndarray] = None,
        present: Optional[np.ndarray] = None,
        *,
        memory_intensity: float = 0.8,
        instructions: int = 0,
        counter_warmup_passes: int = 3,
    ) -> "Trace":
        """A trace over valid columns, taken as they are.

        ``images`` holds one row per selected sector (see the module
        docstring); ``present`` defaults to every row carrying an image.
        """
        trace = cls.__new__(cls)
        if images is not None and present is None:
            present = np.ones(len(images), dtype=bool)
        trace._assign(name, line_addrs, sector_masks, writes, images, present,
                      memory_intensity, instructions, counter_warmup_passes)
        return trace

    def _assign(self, name, line_addrs, sector_masks, writes, images,
                present, memory_intensity, instructions,
                counter_warmup_passes) -> None:
        if not 0.0 <= memory_intensity <= 1.0:
            raise TraceError("memory intensity must be within [0, 1]")
        if not len(line_addrs) == len(sector_masks) == len(writes):
            raise TraceError("trace columns differ in length")
        counts = SECTOR_COUNTS[sector_masks]
        self.name = name
        self.line_addrs = line_addrs
        self.sector_masks = sector_masks
        self.writes = writes
        #: Row of each access's first selected sector.
        self.first_rows = np.cumsum(counts) - counts
        self.images = images
        self.present = present
        if images is not None and not (
            len(images) == len(present) == int(counts.sum())
        ):
            raise TraceError(
                "image matrix and presence flags need one row per selected "
                "sector"
            )
        #: Fraction of runtime that is memory-bound (drives the perf
        #: model's traffic -> IPC mapping; the paper's high/medium
        #: intensity classes).
        self.memory_intensity = memory_intensity
        #: Total dynamic instructions the trace stands for (perf/power
        #: model). Default: a memory-intensive kernel retires a handful
        #: of instructions per L2 access.
        self.instructions = (
            instructions if instructions > 0 else max(1, 20 * len(writes))
        )
        #: Pre-window write history depth (see BenchmarkProfile).
        self.counter_warmup_passes = counter_warmup_passes

    def __len__(self) -> int:
        return len(self.writes)

    def __iter__(self) -> Iterator[TraceAccess]:
        """One :class:`TraceAccess` record per access, built on demand.

        An access whose sectors carry no image has ``values`` None.
        """
        columns = zip(self.line_addrs.tolist(), self.sector_masks.tolist(),
                      self.writes.tolist(), self.first_rows.tolist())
        if self.images is None:
            for line_addr, mask, write, _first in columns:
                yield TraceAccess(line_addr, mask, write)
            return
        blob = self.images.astype("<u4", copy=False).tobytes()
        present = self.present.tolist()
        for line_addr, mask, write, first in columns:
            values = [
                (slot, blob[32 * row:32 * row + 32])
                for row, slot in enumerate(MASK_SLOTS[mask], first)
                if present[row]
            ]
            yield TraceAccess(line_addr, mask, write, values or None)

    @property
    def write_accesses(self) -> int:
        return int(np.count_nonzero(self.writes))

    @property
    def read_accesses(self) -> int:
        return len(self) - self.write_accesses

    @property
    def read_fraction(self) -> float:
        return self.read_accesses / len(self) if len(self) else 0.0

    @property
    def touched_lines(self) -> int:
        return len(np.unique(self.line_addrs))

    @property
    def footprint_bytes(self) -> int:
        return self.touched_lines * 128

    @property
    def sector_count(self) -> int:
        """Selected sectors over all accesses: the image matrix's rows."""
        return int(SECTOR_COUNTS[self.sector_masks].sum())

    def __repr__(self) -> str:
        kind = "values" if self.images is not None else "no values"
        return f"Trace({self.name!r}, {len(self)} accesses, {kind})"
