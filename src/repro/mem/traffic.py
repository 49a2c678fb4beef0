"""DRAM traffic accounting.

Every off-chip transaction in the model is a 32-byte sector transfer
tagged with the *stream* it belongs to. The per-stream byte totals are
the primary output of the simulator: the paper's bandwidth figures
(Figs. 7 and 19) are direct renderings of this breakdown, and the
performance model converts total bytes into normalized IPC.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Mapping


class Stream(Enum):
    """Classification of DRAM transactions by purpose."""

    DATA_READ = "data_read"
    DATA_WRITE = "data_write"
    COUNTER_READ = "counter_read"
    COUNTER_WRITE = "counter_write"
    MAC_READ = "mac_read"
    MAC_WRITE = "mac_write"
    BMT_READ = "bmt_read"
    BMT_WRITE = "bmt_write"
    COMPACT_COUNTER_READ = "compact_counter_read"
    COMPACT_COUNTER_WRITE = "compact_counter_write"
    COMPACT_BMT_READ = "compact_bmt_read"
    COMPACT_BMT_WRITE = "compact_bmt_write"
    #: Write-ahead metadata-log appends/commits of the crash-recoverable
    #: engine (docs/ARCHITECTURE.md § Crash consistency & recovery).
    METADATA_LOG_WRITE = "metadata_log_write"

    # Members are singletons that compare by identity, so identity
    # hashing is consistent with equality, and it skips the Python-level
    # ``Enum.__hash__`` on every Stream-keyed dict access.
    __hash__ = object.__hash__


#: Streams that carry security metadata rather than program data.
METADATA_STREAMS = frozenset(s for s in Stream if not s.value.startswith("data"))

#: Streams belonging to the encryption-counter subsystem (either layer).
COUNTER_STREAMS = frozenset(
    {
        Stream.COUNTER_READ,
        Stream.COUNTER_WRITE,
        Stream.COMPACT_COUNTER_READ,
        Stream.COMPACT_COUNTER_WRITE,
    }
)

#: Streams belonging to an integrity tree (either layer).
TREE_STREAMS = frozenset(
    {
        Stream.BMT_READ,
        Stream.BMT_WRITE,
        Stream.COMPACT_BMT_READ,
        Stream.COMPACT_BMT_WRITE,
    }
)


class TrafficCounter:
    """Accumulates per-stream transaction counts and bytes."""

    def __init__(self) -> None:
        self._bytes: Dict[Stream, int] = {s: 0 for s in Stream}
        self._transactions: Dict[Stream, int] = {s: 0 for s in Stream}

    def record(self, stream: Stream, nbytes: int, transactions: int = 1) -> None:
        """Add *nbytes* moved in *transactions* DRAM bursts to *stream*."""
        if nbytes < 0 or transactions < 0:
            raise ValueError("traffic cannot be negative")
        self._bytes[stream] += nbytes
        self._transactions[stream] += transactions

    def merge(self, other: "TrafficCounter") -> None:
        """Fold another counter (e.g., another partition's) into this one."""
        for stream in Stream:
            self._bytes[stream] += other._bytes[stream]
            self._transactions[stream] += other._transactions[stream]

    def reset(self) -> None:
        """Zero all totals in place.

        Interval profiling accumulates into one counter per window and
        resets it at each snapshot, so per-interval deltas never
        re-allocate counters (see :func:`repro.gpu.simulator.replay_events`).
        """
        for stream in Stream:
            self._bytes[stream] = 0
            self._transactions[stream] = 0

    def bytes_for(self, stream: Stream) -> int:
        return self._bytes[stream]

    def transactions_for(self, stream: Stream) -> int:
        return self._transactions[stream]

    def report(self) -> "TrafficReport":
        """Snapshot the totals into an immutable report."""
        return TrafficReport(
            bytes_by_stream={s: self._bytes[s] for s in Stream},
            transactions_by_stream={s: self._transactions[s] for s in Stream},
        )


@dataclass(frozen=True)
class TrafficReport:
    """Immutable per-stream traffic totals with derived views.

    Both mappings are *required*: a report without transaction data
    would make the derived transaction views silently read 0 (which
    corrupted latency modeling before this was enforced). Construction
    normalizes each mapping to cover every stream (absent streams become
    0) and rejects negative entries.
    """

    bytes_by_stream: Mapping[Stream, int]
    transactions_by_stream: Mapping[Stream, int]

    def __post_init__(self) -> None:
        for name in ("bytes_by_stream", "transactions_by_stream"):
            raw = getattr(self, name)
            normalized = {s: int(raw.get(s, 0)) for s in Stream}
            if any(v < 0 for v in normalized.values()):
                raise ValueError(f"{name} cannot contain negative traffic")
            unknown = set(raw) - set(Stream)
            if unknown:
                raise ValueError(f"{name} has unknown streams: {unknown}")
            object.__setattr__(self, name, normalized)

    def _sum(self, streams: Iterable[Stream]) -> int:
        return sum(self.bytes_by_stream.get(s, 0) for s in streams)

    @property
    def total_bytes(self) -> int:
        return self._sum(Stream)

    @property
    def total_transactions(self) -> int:
        return sum(self.transactions_by_stream.values())

    def transactions_for(self, stream: Stream) -> int:
        return self.transactions_by_stream[stream]

    @property
    def data_bytes(self) -> int:
        return self._sum((Stream.DATA_READ, Stream.DATA_WRITE))

    @property
    def metadata_bytes(self) -> int:
        return self._sum(METADATA_STREAMS)

    @property
    def counter_bytes(self) -> int:
        return self._sum(COUNTER_STREAMS)

    @property
    def mac_bytes(self) -> int:
        return self._sum((Stream.MAC_READ, Stream.MAC_WRITE))

    @property
    def tree_bytes(self) -> int:
        return self._sum(TREE_STREAMS)

    @property
    def metadata_overhead(self) -> float:
        """Metadata bytes per data byte (the paper's ">200% extra")."""
        if self.data_bytes == 0:
            return 0.0
        return self.metadata_bytes / self.data_bytes

    def metadata_reduction_vs(self, baseline: "TrafficReport") -> float:
        """Fractional metadata-traffic saving relative to *baseline*.

        This is the quantity of paper Fig. 19 (48.14% average for Plutus
        vs PSSM). Positive values are savings.
        """
        if baseline.metadata_bytes == 0:
            return 0.0
        return 1.0 - self.metadata_bytes / baseline.metadata_bytes

    def breakdown(self) -> Dict[str, int]:
        """Coarse four-way byte split used by the Fig. 7 rendering."""
        return {
            "data": self.data_bytes,
            "counter": self.counter_bytes,
            "mac": self.mac_bytes,
            "bmt": self.tree_bytes,
        }
