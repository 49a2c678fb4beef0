"""Columnar (structure-of-arrays) form of the DRAM-side event log.

The log stores its event stream as parallel numpy columns rather than
one Python object per event, so millions of events cost a few arrays
and replay can cut them into per-partition runs with numpy:

* ``kind``      — one byte per event (0 = fill, 1 = writeback);
* ``partition`` — int32 partition index;
* ``sector``    — int64 partition-local sector index;
* ``images``    — the sector images, stored the way a
  :class:`~repro.workloads.trace.Trace` stores them: one ``(n, 8)``
  little-endian uint32 matrix, one row per event;
* ``present``   — one flag per event; an event without an image has a
  zero row and ``False`` here.

:class:`EventColumns` is ``MemoryEventLog.events``, the log's one
in-memory form. It is built once (by the L2 pass, the loader or
:meth:`EventColumns.from_events`) and its arrays are read-only, so
nothing can change a log in place. Every image is 32 bytes by
construction. :meth:`EventColumns.iter_events` materializes
:class:`MemoryEvent` objects one at a time for per-event readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

#: Byte codes of the ``kind`` column.
FILL_CODE = 0
WRITEBACK_CODE = 1


class EventKind(Enum):
    FILL = "fill"
    WRITEBACK = "writeback"


_KIND_BY_CODE = (EventKind.FILL, EventKind.WRITEBACK)


class MemoryEvent:
    """One sector-granular DRAM-side event at a partition controller.

    Compares by value (kind, partition, sector, payload), so an event
    materialized by :meth:`EventColumns.iter_events` equals the one the
    log was built from.
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
    """The event stream as read-only numpy columns.

    The constructor takes ownership of its arrays and makes them
    read-only.
    """

    kind: np.ndarray       # uint8, FILL_CODE / WRITEBACK_CODE
    partition: np.ndarray  # int32
    sector: np.ndarray     # int64
    images: np.ndarray     # (n, 8) little-endian uint32; zero row if absent
    present: np.ndarray    # bool, the event carries an image

    def __post_init__(self) -> None:
        for column in (self.kind, self.partition, self.sector, self.images,
                       self.present):
            column.flags.writeable = False

    @classmethod
    def from_events(
        cls, events: Iterable[MemoryEvent] = ()
    ) -> "EventColumns":
        """Columns holding *events* in order (no events: an empty log).

        Raises ValueError on an image that is not 32 bytes.
        """
        events = list(events)
        values = [event.values for event in events]
        for image in values:
            if image is not None and len(image) != 32:
                raise ValueError(
                    f"sector image must be 32 bytes, got {len(image)}"
                )
        present = np.array([image is not None for image in values],
                           dtype=bool)
        images = np.zeros((len(events), 8), dtype="<u4")
        images[present] = np.frombuffer(
            b"".join(image for image in values if image is not None),
            dtype="<u4",
        ).reshape(-1, 8)
        return cls(
            kind=np.array([_KIND_BY_CODE.index(event.kind)
                           for event in events], dtype=np.uint8),
            partition=np.array([event.partition for event in events],
                               dtype=np.int32),
            sector=np.array([event.sector_index for event in events],
                            dtype=np.int64),
            images=images,
            present=present,
        )

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    def iter_events(self) -> Iterator[MemoryEvent]:
        """Materialize the events in log order, one object at a time."""
        images = self.images
        for row, (code, partition, sector, has) in enumerate(zip(
            self.kind.tolist(), self.partition.tolist(),
            self.sector.tolist(), self.present.tolist(),
        )):
            yield MemoryEvent(_KIND_BY_CODE[code], partition, sector,
                              images[row].tobytes() if has else None)

    def values_for(self, rows: np.ndarray) -> "ColumnValues":
        """Lazy per-row value sequence (decoded only on access)."""
        return ColumnValues(self, rows)


class ColumnValues(Sequence):
    """Lazy ``Sequence[Optional[bytes]]`` over selected rows of a log."""

    __slots__ = ("_cols", "_rows")

    def __init__(self, cols: EventColumns, rows: np.ndarray) -> None:
        self._cols = cols
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(ColumnValues(self._cols, self._rows[index]))
        row = int(self._rows[index])
        if not self._cols.present[row]:
            return None
        return self._cols.images[row].tobytes()

    def __iter__(self) -> Iterator[Optional[bytes]]:
        images = self._cols.images
        for row, has in zip(self._rows.tolist(),
                            self._cols.present[self._rows].tolist()):
            yield images[row].tobytes() if has else None

    def masked_u32_rows(self, mask: int) -> List[Optional[List[int]]]:
        """Each row's eight little-endian uint32 words ANDed with *mask*,
        or None for a row without a value.

        The input the value cache's run methods take, from one gather
        of the image rows.
        """
        rows = (self._cols.images[self._rows] & np.uint32(mask)).tolist()
        present = self._cols.present[self._rows]
        if present.all():
            return rows
        return [words if has else None
                for words, has in zip(rows, present.tolist())]
