"""Columnar (structure-of-arrays) core of the DRAM-side event log.

The log stores its event stream as parallel columns rather than one
Python object per event, so millions of events cost a few buffers and
replay can cut them into per-partition runs with numpy:

* ``kind``      — one byte per event (0 = fill, 1 = writeback);
* ``partition`` — int32 partition index;
* ``sector``    — int64 partition-local sector index;
* ``value_offset``/``value_length`` — int64/int32 slices into a shared
  ``payload`` byte blob (offset ``-1`` means the event carried no value).

Two forms cooperate:

* :class:`ColumnStore` — the growable builder (``bytearray`` +
  ``array.array`` columns) that *is* ``MemoryEventLog.events``: the L2
  pass and the fuzzer append into it, the loader bulk-extends it, and
  :meth:`ColumnStore.iter_events` materializes :class:`MemoryEvent`
  objects one at a time for per-event readers;
* :class:`EventColumns` — an immutable numpy snapshot of a store, the
  form the vectorized replay and serialization operate on.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Sequence

import numpy as np

#: Byte codes of the ``kind`` column.
FILL_CODE = 0
WRITEBACK_CODE = 1

# The builder columns lean on CPython's array.array item sizes; these
# hold on every supported platform, but the snapshot math depends on
# them, so fail loudly rather than corrupt silently.
assert array("i").itemsize == 4 and array("q").itemsize == 8


class EventKind(Enum):
    FILL = "fill"
    WRITEBACK = "writeback"


_KIND_BY_CODE = (EventKind.FILL, EventKind.WRITEBACK)


class MemoryEvent:
    """One sector-granular DRAM-side event at a partition controller.

    Compares by value (kind, partition, sector, payload), so an event
    materialized by :meth:`ColumnStore.iter_events` equals the one that
    was appended.
    """

    __slots__ = ("kind", "partition", "sector_index", "values")

    def __init__(self, kind: EventKind, partition: int, sector_index: int,
                 values: Optional[bytes]) -> None:
        self.kind = kind
        self.partition = partition
        self.sector_index = sector_index
        self.values = values

    def __repr__(self) -> str:
        return (
            f"MemoryEvent({self.kind.value} p{self.partition} "
            f"s{self.sector_index})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryEvent):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.partition == other.partition
            and self.sector_index == other.sector_index
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(
            (self.kind, self.partition, self.sector_index, self.values)
        )


@dataclass(frozen=True, eq=False)
class EventColumns:
    """Immutable numpy snapshot of an event stream.

    ``payload`` is canonical: present values are stored back to back in
    event order, so ``value_offset`` is monotonic over present events
    and chunked serialization can slice it contiguously.
    """

    kind: np.ndarray          # uint8, FILL_CODE / WRITEBACK_CODE
    partition: np.ndarray     # int32
    sector: np.ndarray        # int64
    value_offset: np.ndarray  # int64, -1 = event carried no value
    value_length: np.ndarray  # int32, 0 when absent
    payload: bytes
    #: Every present value is exactly 32 bytes (the sector image size) —
    #: unlocks the reshape-to-matrix fast paths.
    fixed32: bool

    @property
    def n_events(self) -> int:
        return int(self.kind.shape[0])

    @property
    def fill_count(self) -> int:
        return int(np.count_nonzero(self.kind == FILL_CODE))

    @property
    def writeback_count(self) -> int:
        return self.n_events - self.fill_count

    def value_at(self, row: int) -> Optional[bytes]:
        offset = int(self.value_offset[row])
        if offset < 0:
            return None
        return self.payload[offset:offset + int(self.value_length[row])]

    def values_for(self, rows: np.ndarray) -> "ColumnValues":
        """Lazy per-row value sequence (decoded only on access)."""
        return ColumnValues(self, rows)

    def matrix32(self) -> np.ndarray:
        """Present values as an ``(n_present, 32)`` uint8 matrix."""
        if not self.fixed32:
            raise ValueError("payload holds non-32-byte values")
        return np.frombuffer(self.payload, dtype=np.uint8).reshape(-1, 32)

    def take(self, rows: np.ndarray) -> "EventColumns":
        """Gather a row subset into a new canonical snapshot."""
        lengths = self.value_length[rows]
        src_offsets = self.value_offset[rows]
        present = np.flatnonzero(src_offsets >= 0)
        new_offsets = np.full(len(rows), -1, dtype=np.int64)
        if present.size == 0:
            payload = b""
        elif self.fixed32:
            matrix = self.matrix32()
            payload = matrix[src_offsets[present] // 32].tobytes()
            new_offsets[present] = (
                np.arange(present.size, dtype=np.int64) * 32
            )
        else:
            chunks: List[bytes] = []
            position = 0
            for slot, row in zip(
                present.tolist(), src_offsets[present].tolist()
            ):
                length = int(lengths[slot])
                chunks.append(self.payload[row:row + length])
                new_offsets[slot] = position
                position += length
            payload = b"".join(chunks)
        present_lengths = lengths[present]
        return EventColumns(
            kind=self.kind[rows],
            partition=self.partition[rows],
            sector=self.sector[rows],
            value_offset=new_offsets,
            value_length=lengths.copy(),
            payload=payload,
            fixed32=bool(np.all(present_lengths == 32)),
        )


class ColumnValues(Sequence):
    """Lazy ``Sequence[Optional[bytes]]`` over selected snapshot rows."""

    __slots__ = ("_cols", "_rows")

    def __init__(self, cols: EventColumns, rows: np.ndarray) -> None:
        self._cols = cols
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._cols.value_at(r)
                    for r in self._rows[index].tolist()]
        return self._cols.value_at(int(self._rows[index]))

    def __iter__(self) -> Iterator[Optional[bytes]]:
        payload = self._cols.payload
        offsets = self._cols.value_offset[self._rows].tolist()
        lengths = self._cols.value_length[self._rows].tolist()
        for offset, length in zip(offsets, lengths):
            yield None if offset < 0 else payload[offset:offset + length]

    @property
    def fixed32(self) -> bool:
        """Every present value is 32 bytes (see ``EventColumns.fixed32``)."""
        return self._cols.fixed32

    def masked_u32_rows(self, mask: int) -> List[Optional[List[int]]]:
        """Each row's eight little-endian uint32 words ANDed with *mask*,
        or None for a row without a value.

        The input the value cache's run methods take, from one gather
        of the payload rows when every row has a value. Requires
        :attr:`fixed32`.
        """
        cols = self._cols
        if not cols.fixed32:
            raise ValueError("payload holds non-32-byte values")
        offsets = cols.value_offset[self._rows]
        words = np.frombuffer(cols.payload, dtype="<u4").reshape(-1, 8)
        if not offsets.size or offsets.min() >= 0:
            return (words[offsets // 32] & np.uint32(mask)).tolist()
        present = offsets >= 0
        rows = iter(
            (words[offsets[present] // 32] & np.uint32(mask)).tolist()
        )
        return [next(rows) if has else None for has in present.tolist()]


class ColumnStore:
    """Growable structure-of-arrays event storage.

    Append-only; the numpy snapshot from :meth:`to_columns` is cached
    and invalidated by the next append, and owns copies of the buffers
    so later growth can never corrupt an outstanding snapshot.
    """

    __slots__ = (
        "_kinds", "_partitions", "_sectors", "_offsets", "_lengths",
        "_payload", "_fixed32", "_cols",
    )

    def __init__(self) -> None:
        self._kinds = bytearray()
        self._partitions = array("i")
        self._sectors = array("q")
        self._offsets = array("q")
        self._lengths = array("i")
        self._payload = bytearray()
        self._fixed32 = True
        self._cols: Optional[EventColumns] = None

    def __len__(self) -> int:
        return len(self._kinds)

    # -- building ---------------------------------------------------------

    def append(self, kind_code: int, partition: int, sector: int,
               values: Optional[bytes]) -> None:
        self._kinds.append(kind_code)
        self._partitions.append(partition)
        self._sectors.append(sector)
        if values is None:
            self._offsets.append(-1)
            self._lengths.append(0)
        else:
            self._offsets.append(len(self._payload))
            self._lengths.append(len(values))
            self._payload.extend(values)
            if len(values) != 32:
                self._fixed32 = False
        self._cols = None

    def extend_decoded(
        self,
        kinds: bytes,
        partitions: np.ndarray,
        sectors: np.ndarray,
        lengths: np.ndarray,
        payload: bytes,
    ) -> None:
        """Bulk-append decoded columns (``lengths`` uses -1 for absent).

        This is the loader fast path: one buffer copy per column per
        chunk instead of one Python call per event.
        """
        present = lengths >= 0
        plengths = np.where(present, lengths, 0).astype(np.int64)
        if int(plengths.sum()) != len(payload):
            raise ValueError("payload size disagrees with value lengths")
        base = len(self._payload)
        ends = np.cumsum(plengths)
        offsets = np.where(present, base + ends - plengths, -1)
        self._kinds.extend(kinds)
        self._partitions.frombytes(
            np.ascontiguousarray(partitions, dtype=np.int32).tobytes()
        )
        self._sectors.frombytes(
            np.ascontiguousarray(sectors, dtype=np.int64).tobytes()
        )
        self._offsets.frombytes(
            np.ascontiguousarray(offsets, dtype=np.int64).tobytes()
        )
        self._lengths.frombytes(
            np.ascontiguousarray(
                np.where(present, lengths, 0), dtype=np.int32
            ).tobytes()
        )
        self._payload.extend(payload)
        if not bool(np.all(plengths[present] == 32)):
            self._fixed32 = False
        self._cols = None

    # -- reading ----------------------------------------------------------

    def iter_events(self) -> Iterator[MemoryEvent]:
        """Materialize the events in log order, one object at a time."""
        payload = self._payload
        for code, partition, sector, offset, length in zip(
            self._kinds, self._partitions, self._sectors,
            self._offsets, self._lengths,
        ):
            values = (
                None if offset < 0 else bytes(payload[offset:offset + length])
            )
            yield MemoryEvent(_KIND_BY_CODE[code], partition, sector, values)

    def to_columns(self) -> EventColumns:
        """Numpy snapshot of the store (cached until the next append)."""
        if self._cols is None:
            self._cols = EventColumns(
                kind=np.frombuffer(bytes(self._kinds), dtype=np.uint8),
                partition=np.frombuffer(
                    self._partitions, dtype=np.int32
                ).copy() if self._partitions else np.empty(0, np.int32),
                sector=np.frombuffer(
                    self._sectors, dtype=np.int64
                ).copy() if self._sectors else np.empty(0, np.int64),
                value_offset=np.frombuffer(
                    self._offsets, dtype=np.int64
                ).copy() if self._offsets else np.empty(0, np.int64),
                value_length=np.frombuffer(
                    self._lengths, dtype=np.int32
                ).copy() if self._lengths else np.empty(0, np.int32),
                payload=bytes(self._payload),
                fixed32=self._fixed32,
            )
        return self._cols
