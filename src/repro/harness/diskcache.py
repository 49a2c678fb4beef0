"""Content-hashed on-disk cache for traces and DRAM event logs.

The two expensive artifacts every sweep shares — generated benchmark
traces and the event logs one L2 pass distills from them — are pure
functions of their inputs, so they cache across *processes*, not just
within one :class:`~repro.harness.runner.ExperimentContext`. Artifacts
live under a cache root (default ``.cache/``) keyed by SHA-256 over
their defining inputs:

* traces: generator identity — ``(benchmark, length, seed)`` plus the
  cache schema version;
* event logs: *content* — the serialized trace text plus the structural
  ``GpuConfig`` signature, so regenerating a trace differently (or
  changing the L2 geometry) invalidates dependent logs automatically.

Storage is the :mod:`repro.workloads.traceio` text formats (a trace
is one access per line; an event log is hex-encoded column chunks,
which load through the bulk column path) plus a SHA-256 checksum
footer; writes are atomic (temp file + rename) so concurrent runs never
observe torn artifacts. A truncated, bit-flipped, or otherwise mangled
entry fails the checksum (or the format validation behind it) and
degrades to a cache miss — counted in :attr:`DiskCache.corrupt_entries`,
never surfaced as a parse error. Delete the cache root, or bump
:data:`SCHEMA_VERSION` after changing trace generators, to invalidate
everything.

Resolution order for the cache root: an explicit constructor/CLI path,
else the ``REPRO_CACHE_DIR`` environment variable, else ``.cache``;
the empty string disables disk caching entirely.

Beyond read-through/write-through caching, the root doubles as a
**shared artifact store** for multi-process campaigns:

* every successful read refreshes the entry's mtime, so mtime order is
  LRU order and :meth:`DiskCache.gc` can evict least-recently-used
  entries down to a byte budget;
* **pins** protect in-flight artifacts from that GC. A process calls
  :func:`activate_pin` once (the distributed executor's workers pin as
  ``run-<run_id>-<worker_id>``); from then on every entry the process
  hits or stores is appended to ``pins/<pin_id>.json``. Each pin file
  has exactly one writer, so no locking is needed, and
  :meth:`DiskCache.gc` never evicts a pinned entry regardless of age.
  Pins are released by deleting the pin file
  (:meth:`DiskCache.clear_pins`) when the campaign finishes;
* session hit/miss/store/corruption counters are merged into a
  persisted ``counters.json`` by :func:`flush_counters` (best-effort,
  lock-file serialized), so ``repro.harness cache stats`` reports
  lifetime totals across every process that used the root.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.common.atomicio import atomic_write_text
from repro.common.digest import content_digest
from repro.common.errors import TraceError
from repro.workloads.trace import Trace
from repro.workloads.traceio import (
    dumps_event_log,
    dumps_trace,
    loads_event_log,
    loads_trace,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.config import GpuConfig
    from repro.gpu.simulator import MemoryEventLog

#: Bump when trace generators or on-disk formats change shape: the
#: version salts every key, so stale artifacts are simply never hit.
#: v2: entries carry a SHA-256 checksum footer.
#: v3: event logs are stored in the columnar chunk format.
SCHEMA_VERSION = "3"

#: Footer line prefix sealing every cache entry.
CHECKSUM_PREFIX = "#repro-checksum sha256="

#: Environment variable naming the cache root ("" disables caching).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".cache"

#: Subdirectory of pin files (one JSON file per active pin id).
PINS_DIR = "pins"

#: Persisted lifetime counters, merged across processes on flush.
COUNTERS_NAME = "counters.json"

#: Names of the session counters persisted into ``counters.json``.
COUNTER_FIELDS = ("hits", "misses", "stores", "corrupt_entries")

#: A ``counters.lock`` older than this is presumed orphaned (its
#: holder was killed mid-flush) and broken by the next flusher.
_LOCK_STALE_S = 5.0

#: The process-wide pin id entries are recorded under, or ``None``.
_ACTIVE_PIN: Optional[str] = None

#: Every cache constructed in this process, so :func:`flush_counters`
#: can flush them all. Strong references on purpose: a weak set would
#: let an instance (and its unflushed counter deltas) be collected
#: before the interpreter-exit flush runs. Instances are a few dicts
#: each, so pinning them for the process lifetime costs nothing.
_INSTANCES: "Set[DiskCache]" = set()


def activate_pin(pin_id: str) -> None:
    """Pin every artifact this process touches under *pin_id*.

    Module-global by design: runner code deep inside a worker builds
    its own :class:`DiskCache` instances, and all of them must honor
    the pin without plumbing it through every constructor.
    """
    global _ACTIVE_PIN
    if "/" in pin_id or os.sep in pin_id:
        raise ValueError(f"pin id must be a bare name, got {pin_id!r}")
    _ACTIVE_PIN = pin_id


def deactivate_pin() -> None:
    """Stop recording entries under the active pin (file stays)."""
    global _ACTIVE_PIN
    _ACTIVE_PIN = None


def active_pin() -> Optional[str]:
    return _ACTIVE_PIN


def flush_counters() -> None:
    """Merge every live cache's session counters into its root."""
    for cache in list(_INSTANCES):
        try:
            cache.flush_counters()
        except Exception:  # pragma: no cover - exit-path best effort
            continue


# Flush on interpreter exit so `cache stats` in a later process sees
# lifetime counters from serial harness runs, not just from workers
# (which flush explicitly before exiting). Best-effort by design.
atexit.register(flush_counters)


def resolve_cache_dir(spec: Optional[str] = None) -> Optional[str]:
    """Resolve a cache-root spec: explicit path > env var > default.

    Returns ``None`` when caching is disabled (empty-string spec or
    ``REPRO_CACHE_DIR=""``).
    """
    if spec is None:
        spec = os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR)
    return spec or None


@dataclass(frozen=True)
class GcResult:
    """What one :meth:`DiskCache.gc` pass did (or would do)."""

    examined: int
    evicted: int
    freed_bytes: int
    remaining_bytes: int
    #: Entries old enough to evict but protected by a pin.
    pinned_kept: int
    dry_run: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "examined": self.examined,
            "evicted": self.evicted,
            "freed_bytes": self.freed_bytes,
            "remaining_bytes": self.remaining_bytes,
            "pinned_kept": self.pinned_kept,
            "dry_run": self.dry_run,
        }


class DiskCache:
    """One cache root holding trace and event-log artifacts."""

    def __init__(self, root: str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries discarded for failing checksum or format validation.
        self.corrupt_entries = 0
        #: Counter values already merged into ``counters.json``.
        self._flushed: Dict[str, int] = {f: 0 for f in COUNTER_FIELDS}
        #: In-memory mirror of this process's pin files (we are their
        #: single writer, so the mirror cannot go stale).
        self._pin_names: Dict[str, Set[str]] = {}
        #: Sizes captured by the last :meth:`entries` listing.
        self._entry_sizes: Dict[Path, int] = {}
        _INSTANCES.add(self)

    @classmethod
    def from_spec(cls, spec: Optional[str] = None) -> Optional["DiskCache"]:
        """Build a cache from a root spec, or ``None`` when disabled."""
        resolved = resolve_cache_dir(spec)
        return cls(resolved) if resolved else None

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def trace_key(benchmark: str, length: int, seed: int) -> str:
        """Key for a generated benchmark trace (generator identity)."""
        return content_digest(
            "trace", SCHEMA_VERSION, benchmark, str(length), str(seed)
        )

    @staticmethod
    def event_log_key(trace: Trace, config: "GpuConfig") -> str:
        """Key for the event log of one (trace, GPU config) L2 pass.

        Hashes the trace *content* (its full serialized text), so any
        change in how a trace is produced propagates to dependent logs
        without bookkeeping. ``GpuConfig`` is a frozen dataclass tree;
        its repr is a complete structural signature.
        """
        return content_digest(
            "eventlog", SCHEMA_VERSION, dumps_trace(trace), repr(config)
        )

    # -- storage -------------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        return self.root / f"{kind}-{key}.txt"

    def _note_corrupt(self, path: Path) -> None:
        """Count and evict a mangled entry; callers report a cache miss."""
        self.corrupt_entries += 1
        self._discard(path)

    def _read(self, path: Path) -> Optional[str]:
        """Read and checksum-verify one entry; ``None`` means miss.

        Truncation chops (or damages) the trailing footer line; a bit
        flip anywhere changes the digest. Either way the entry is
        discarded and rebuilt by the caller — corruption of the cache
        must never escalate into a parse error.
        """
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        idx = text.rfind(CHECKSUM_PREFIX)
        if idx < 0 or not text.endswith("\n"):
            self._note_corrupt(path)
            return None
        payload = text[:idx]
        claimed = text[idx + len(CHECKSUM_PREFIX):].strip()
        actual = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if claimed != actual:
            self._note_corrupt(path)
            return None
        # Refresh the entry's mtime so gc() evicts in true LRU order:
        # a hit makes the entry the youngest, not still the oldest.
        try:
            os.utime(path)
        except OSError:
            pass
        self._record_pin(path)
        return payload

    def _write_atomic(self, path: Path, text: str) -> None:
        if not text.endswith("\n"):
            text += "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        sealed = f"{text}{CHECKSUM_PREFIX}{digest}\n"
        # No fsync: the checksum footer already turns a power-loss torn
        # entry into a counted cache miss, and sweeps store thousands
        # of entries.
        atomic_write_text(path, sealed, fsync=False)
        self.stores += 1
        self._record_pin(path)

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- traces --------------------------------------------------------------

    def load_trace(self, key: str) -> Optional[Trace]:
        path = self._path("trace", key)
        text = self._read(path)
        if text is None:
            self.misses += 1
            return None
        try:
            trace = loads_trace(text)
        except TraceError:
            self._note_corrupt(path)
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def store_trace(self, key: str, trace: Trace) -> None:
        self._write_atomic(self._path("trace", key), dumps_trace(trace))

    # -- event logs ----------------------------------------------------------

    def load_event_log(self, key: str) -> Optional["MemoryEventLog"]:
        path = self._path("events", key)
        text = self._read(path)
        if text is None:
            self.misses += 1
            return None
        try:
            log = loads_event_log(text)
        except TraceError:
            self._note_corrupt(path)
            self.misses += 1
            return None
        self.hits += 1
        return log

    def store_event_log(self, key: str, log: "MemoryEventLog") -> None:
        self._write_atomic(self._path("events", key), dumps_event_log(log))

    # -- artifact store: pins, GC, stats -------------------------------------

    def entries(self) -> List[Path]:
        """Every artifact entry under the root, oldest mtime first."""
        try:
            found = list(self.root.glob("*.txt"))
        except OSError:
            return []
        keyed = []
        for path in found:
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent eviction
            keyed.append((stat.st_mtime, path.name, path, stat.st_size))
        keyed.sort(key=lambda item: (item[0], item[1]))
        self._entry_sizes = {path: size for _, _, path, size in keyed}
        return [path for _, _, path, _ in keyed]

    def total_bytes(self) -> int:
        total = 0
        for path in self.entries():
            total += self._entry_sizes.get(path, 0)
        return total

    def _pins_dir(self) -> Path:
        return self.root / PINS_DIR

    def _record_pin(self, path: Path) -> None:
        """Record *path* under the process-wide active pin, if any."""
        if _ACTIVE_PIN is not None:
            self.pin(_ACTIVE_PIN, path.name)

    def pin(self, pin_id: str, entry_name: str) -> None:
        """Append *entry_name* to ``pins/<pin_id>.json`` (idempotent).

        Each pin file is written only by the process that owns the pin
        id, so plain read-modify-write is race-free; the write itself
        is atomic so the GC never reads a torn pin file.
        """
        names = self._pin_names.get(pin_id)
        if names is None:
            names = set()
            loaded = self._read_pin_file(self._pins_dir() / f"{pin_id}.json")
            if loaded is not None:
                names.update(loaded)
            self._pin_names[pin_id] = names
        if entry_name in names:
            return
        names.add(entry_name)
        payload = {
            "schema": 1,
            "pin": pin_id,
            "entries": sorted(names),
        }
        atomic_write_text(
            self._pins_dir() / f"{pin_id}.json",
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            fsync=False,
        )

    @staticmethod
    def _read_pin_file(path: Path) -> Optional[List[str]]:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        entries = payload.get("entries") if isinstance(payload, dict) else None
        if not isinstance(entries, list):
            return None
        return [name for name in entries if isinstance(name, str)]

    def pinned_files(self) -> Set[str]:
        """Union of entry names protected by *any* pin file."""
        pinned: Set[str] = set()
        pins_dir = self._pins_dir()
        if not pins_dir.is_dir():
            return pinned
        for pin_file in sorted(pins_dir.glob("*.json")):
            names = self._read_pin_file(pin_file)
            if names:
                pinned.update(names)
        return pinned

    def pin_ids(self) -> List[str]:
        pins_dir = self._pins_dir()
        if not pins_dir.is_dir():
            return []
        return sorted(path.stem for path in pins_dir.glob("*.json"))

    def clear_pins(self, prefix: str = "") -> int:
        """Drop pin files whose id starts with *prefix*; count removed.

        The distributed coordinator calls this with
        ``run-<run_id>-`` after a campaign finishes so its workers'
        in-flight pins stop shielding entries from future GC.
        """
        removed = 0
        for pin_id in self.pin_ids():
            if not pin_id.startswith(prefix):
                continue
            try:
                (self._pins_dir() / f"{pin_id}.json").unlink()
                removed += 1
            except OSError:
                pass
            self._pin_names.pop(pin_id, None)
        return removed

    def gc(self, max_bytes: int, dry_run: bool = False) -> GcResult:
        """Evict least-recently-used unpinned entries down to a budget.

        mtime order *is* LRU order (reads refresh it), so eviction
        walks entries oldest first, skipping anything pinned — an
        in-flight campaign's artifacts survive even a ``max_bytes=0``
        sweep. Racing with concurrent stores is safe: eviction is a
        plain unlink of a sealed file, and a reader that loses the race
        sees an ordinary miss.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes cannot be negative: {max_bytes}")
        ordered = self.entries()
        sizes = dict(self._entry_sizes)
        pinned = self.pinned_files()
        total = sum(sizes.values())
        evicted = 0
        freed = 0
        pinned_kept = 0
        for path in ordered:
            if total <= max_bytes:
                break
            if path.name in pinned:
                pinned_kept += 1
                continue
            size = sizes.get(path, 0)
            if not dry_run:
                self._discard(path)
            evicted += 1
            freed += size
            total -= size
        return GcResult(
            examined=len(ordered),
            evicted=evicted,
            freed_bytes=freed,
            remaining_bytes=total,
            pinned_kept=pinned_kept,
            dry_run=dry_run,
        )

    # -- persisted counters ---------------------------------------------------

    def _session_counters(self) -> Dict[str, int]:
        return {field: int(getattr(self, field)) for field in COUNTER_FIELDS}

    def read_persisted_counters(self) -> Dict[str, int]:
        counters = {field: 0 for field in COUNTER_FIELDS}
        try:
            payload = json.loads(
                (self.root / COUNTERS_NAME).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return counters
        if isinstance(payload, dict):
            for field in COUNTER_FIELDS:
                value = payload.get(field)
                if isinstance(value, int) and value >= 0:
                    counters[field] = value
        return counters

    def flush_counters(self) -> None:
        """Merge this session's counter deltas into ``counters.json``.

        Best-effort by design: concurrent flushers serialize on an
        ``O_EXCL`` lock file (with a staleness breaker, so a worker
        killed mid-flush cannot wedge the root forever), and a flush
        that cannot take the lock simply leaves its deltas for the
        next call. Lifetime counters are observability, not
        correctness — they must never fail a campaign.
        """
        deltas = {
            field: value - self._flushed[field]
            for field, value in self._session_counters().items()
        }
        if not any(deltas.values()):
            return
        lock = self.root / "counters.lock"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return
        for _ in range(50):
            try:
                fd = os.open(
                    lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                try:
                    if time.time() - lock.stat().st_mtime > _LOCK_STALE_S:
                        lock.unlink()
                        continue
                except OSError:
                    continue
                time.sleep(0.01)
                continue
            except OSError:
                return
            try:
                merged = self.read_persisted_counters()
                for field, delta in deltas.items():
                    merged[field] = merged.get(field, 0) + delta
                merged["schema"] = 1
                atomic_write_text(
                    self.root / COUNTERS_NAME,
                    json.dumps(merged, indent=2, sort_keys=True) + "\n",
                    fsync=False,
                )
                self._flushed = self._session_counters()
            finally:
                os.close(fd)
                try:
                    lock.unlink()
                except OSError:
                    pass
            return

    def stats(self) -> Dict[str, object]:
        """Roll-up for ``repro.harness cache stats``: entries, bytes,
        pins, and lifetime counters (persisted + this session's
        unflushed deltas)."""
        ordered = self.entries()
        total = sum(self._entry_sizes.get(path, 0) for path in ordered)
        counters = self.read_persisted_counters()
        for field, value in self._session_counters().items():
            counters[field] += value - self._flushed[field]
        return {
            "root": str(self.root),
            "entries": len(ordered),
            "total_bytes": total,
            "pins": self.pin_ids(),
            "pinned_entries": len(self.pinned_files()),
            "counters": counters,
        }
