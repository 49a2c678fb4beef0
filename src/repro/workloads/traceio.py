"""Trace file import/export.

Users with real memory traces (e.g. dumped from GPGPU-Sim's memory
partition interface) can feed them to the simulator through this
module. The format is deliberately trivial — one access per line:

    R 0x00001280 0b0011 aabbcc...32B-hex ddeeff...32B-hex
    W 0x00009000 0b1000 00112233...

i.e. direction, 128-byte-aligned line address (hex), sector mask
(binary, bit i = sector i), then one 64-hex-digit sector image per set
mask bit in ascending sector order. Images are optional: lines without
them still drive every non-value mechanism.

Comment lines start with ``#``; a header comment carries the trace
name, memory intensity, and warmup depth so a round-trip preserves the
profile facts the simulator needs.

The module also serializes :class:`~repro.gpu.simulator.MemoryEventLog`
— the DRAM-side event stream distilled from one L2 pass — as
hex-encoded column chunks (``#repro-events-columnar``, see SCHEMAS.md).
That is the one event-log format: the golden corpus commits it, and
supervised fuzz runs journal their failing logs in it. The writer
slices the log's columns chunk by chunk; the loader decodes each chunk
into numpy columns and joins them once into the log's
:class:`~repro.gpu.columnar.EventColumns`. Round-trips are exact:
replaying a reloaded log is byte-identical to replaying the original.
"""

from __future__ import annotations

import io
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
)

from os import PathLike

import numpy as np

from repro.common.atomicio import atomic_write_text
from repro.common.errors import TraceError, TraceFormatError
from repro.workloads.trace import (
    MASK_SLOTS,
    SECTOR_COUNTS,
    Trace,
    check_access,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (gpu -> workloads)
    from repro.gpu.simulator import MemoryEventLog
    from repro.mem.traffic import TrafficReport

_HEADER_PREFIX = "#repro-trace"
#: Event-log header: the trace profile and L2 statistics; the events
#: follow as hex-encoded column blobs in fixed-size chunks.
_EVENTS_HEADER_PREFIX = "#repro-events-columnar"
_CHUNK_PREFIX = "#chunk"
#: Events per serialized event-log chunk.
COLUMNAR_CHUNK_EVENTS = 4096
#: The zero image of a sector imported as ``-``.
_NO_IMAGE = bytes(32)
#: Dumps end with ``#repro-end records=N``; loaders verify the count
#: when the footer is present, so a truncated file cannot silently pass
#: as a shorter-but-valid trace. Hand-written files may omit it.
_FOOTER_PREFIX = "#repro-end"


def dump_trace(trace: Trace, fp: TextIO) -> None:
    """Serialize *trace* to a text stream.

    An access writes one image token per selected sector (``-`` for a
    sector without one) when any of its sectors carries an image, and
    none otherwise.
    """
    fp.write(
        f"{_HEADER_PREFIX} name={trace.name} "
        f"intensity={trace.memory_intensity} "
        f"instructions={trace.instructions} "
        f"warmup={trace.counter_warmup_passes}\n"
    )
    if trace.images is None:
        tokens: List[str] = []
        imaged = [False] * len(trace)
    else:
        hexed = trace.images.astype("<u4", copy=False).tobytes().hex()
        tokens = [f" {hexed[64 * row:64 * row + 64]}" if present else " -"
                  for row, present in enumerate(trace.present.tolist())]
        # Whether any of an access's rows is present: a difference of
        # running counts over its rows.
        seen = np.concatenate(([0], np.cumsum(trace.present)))
        ends = trace.first_rows + SECTOR_COUNTS[trace.sector_masks]
        imaged = (seen[ends] > seen[trace.first_rows]).tolist()
    for write, line_addr, mask, first, has_image in zip(
        trace.writes.tolist(), trace.line_addrs.tolist(),
        trace.sector_masks.tolist(), trace.first_rows.tolist(), imaged,
    ):
        line = f"{'RW'[write]} 0x{line_addr:08x} 0b{mask:04b}"
        if has_image:
            line += "".join(tokens[first:first + len(MASK_SLOTS[mask])])
        fp.write(line + "\n")
    fp.write(f"{_FOOTER_PREFIX} records={len(trace)}\n")


def dumps_trace(trace: Trace) -> str:
    """Serialize *trace* to a string."""
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def _parse_header_fields(body: str) -> dict:
    fields = {}
    for token in body.split():
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


def _parse_header(line: str) -> dict:
    return _parse_header_fields(line[len(_HEADER_PREFIX):])


def _parse_footer(line_no: int, line: str) -> int:
    fields = _parse_header_fields(line[len(_FOOTER_PREFIX):])
    try:
        records = int(fields["records"])
    except (KeyError, ValueError):
        raise TraceFormatError(
            f"bad '{_FOOTER_PREFIX}' footer (expected records=N)",
            line=line_no,
        ) from None
    if records < 0:
        raise TraceFormatError("footer record count is negative",
                               line=line_no)
    return records


def _parse_access(
    line_no: int, tokens: List[str]
) -> Tuple[int, int, bool, List[Optional[bytes]]]:
    """One record line as ``(line address, mask, write, images)``, where
    ``images`` holds one image or None per selected sector."""
    if len(tokens) < 3:
        raise TraceFormatError("expected 'R/W addr mask ...'", line=line_no)
    direction, addr_token, mask_token = tokens[:3]
    if direction not in ("R", "W"):
        raise TraceFormatError("direction must be R or W", line=line_no)
    try:
        line_addr = int(addr_token, 0)
        mask = int(mask_token, 0)
    except ValueError as exc:
        raise TraceFormatError(str(exc), line=line_no) from None

    images: List[Optional[bytes]] = []
    image_tokens = tokens[3:]
    if image_tokens:
        slots = MASK_SLOTS[mask & 15]
        if len(image_tokens) != len(slots):
            raise TraceFormatError(
                f"{len(slots)} sectors set but {len(image_tokens)} images "
                "given (truncated record?)",
                line=line_no,
            )
        for slot, token in zip(slots, image_tokens):
            if token == "-":
                images.append(None)
                continue
            try:
                image = bytes.fromhex(token)
            except ValueError:
                raise TraceFormatError(
                    f"bad hex image for sector {slot}", line=line_no
                ) from None
            if len(image) != 32:
                raise TraceFormatError(
                    f"sector image must be 32 bytes, got {len(image)} "
                    "(truncated record?)",
                    line=line_no,
                )
            images.append(image)
    try:
        check_access(line_addr, mask)
    except TraceError as exc:
        raise TraceFormatError(str(exc), line=line_no) from None
    return (line_addr, mask, direction == "W",
            images or [None] * len(MASK_SLOTS[mask]))


def load_trace(fp: TextIO, name: str = "imported") -> Trace:
    """Parse a trace from a text stream, into columns.

    The ``#repro-trace`` header line is mandatory and must precede every
    record; malformed or truncated input raises
    :class:`~repro.common.errors.TraceFormatError` naming the offending
    line. When the ``#repro-end`` footer is present (all files this
    module writes carry one) the record count is verified against it, so
    a file truncated between records is rejected rather than loaded
    short.
    """
    line_addrs: List[int] = []
    masks: List[int] = []
    writes: List[bool] = []
    #: One image or None per selected sector, access by access.
    row_images: List[Optional[bytes]] = []
    intensity = 0.8
    instructions = 0
    warmup = 3
    saw_header = False
    expected_records = None
    for line_no, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(_HEADER_PREFIX):
            header = _parse_header(line)
            try:
                name = header.get("name", name)
                intensity = float(header.get("intensity", intensity))
                instructions = int(header.get("instructions", instructions))
                warmup = int(header.get("warmup", warmup))
            except ValueError as exc:
                raise TraceFormatError(
                    f"bad trace header: {exc}", line=line_no
                ) from None
            saw_header = True
            continue
        if line.startswith(_FOOTER_PREFIX):
            expected_records = _parse_footer(line_no, line)
            continue
        if line.startswith("#"):
            continue
        if not saw_header:
            raise TraceFormatError(
                f"record before the '{_HEADER_PREFIX}' header "
                "(missing or misplaced header line)",
                line=line_no,
            )
        line_addr, mask, write, images = _parse_access(line_no, line.split())
        line_addrs.append(line_addr)
        masks.append(mask)
        writes.append(write)
        row_images.extend(images)
    if not saw_header:
        raise TraceFormatError(
            f"trace file is missing its '{_HEADER_PREFIX}' header line"
        )
    if expected_records is not None and expected_records != len(masks):
        raise TraceFormatError(
            f"footer declares {expected_records} records but file "
            f"contains {len(masks)} (truncated file?)"
        )
    if not masks:
        raise TraceFormatError("trace file contains no accesses")
    images_matrix = present = None
    if any(image is not None for image in row_images):
        present = np.array([image is not None for image in row_images])
        images_matrix = np.frombuffer(
            b"".join(image or _NO_IMAGE for image in row_images), dtype="<u4"
        ).reshape(-1, 8)
    return Trace.from_columns(
        name,
        np.array(line_addrs, dtype=np.int64),
        np.array(masks, dtype=np.uint8),
        np.array(writes, dtype=bool),
        images_matrix,
        present,
        memory_intensity=intensity,
        instructions=instructions or 20 * len(masks),
        counter_warmup_passes=warmup,
    )


def loads_trace(text: str, name: str = "imported") -> Trace:
    """Parse a trace from a string."""
    return load_trace(io.StringIO(text), name=name)


def dump_event_log(log: "MemoryEventLog", fp: TextIO) -> None:
    """Serialize a DRAM-side event log to a text stream.

    The header records the trace profile and the L2 statistics of the
    pass that produced the log, so a reload feeds the replay engine
    exactly what the live pass did. Each chunk then holds up to
    :data:`COLUMNAR_CHUNK_EVENTS` events as five records — ``K`` kind
    bytes, ``P`` int32-LE partitions, ``S`` int64-LE sectors, ``L``
    int32-LE value lengths (32, or -1 = no value), ``D`` the packed
    sector images — all hex-encoded; the shared ``#repro-end`` footer
    carries the total event count.
    """
    if any(ch.isspace() for ch in log.trace_name):
        raise TraceError("trace name cannot contain whitespace")
    stats = log.l2_stats
    fp.write(
        f"{_EVENTS_HEADER_PREFIX} name={log.trace_name} "
        f"intensity={log.memory_intensity!r} "
        f"instructions={log.instructions} "
        f"warmup={log.counter_warmup_passes} "
        f"l2_accesses={stats.accesses} "
        f"l2_hits={stats.sector_hits} "
        f"l2_misses={stats.sector_misses}\n"
    )
    cols = log.events
    total = len(cols)
    for start in range(0, total, COLUMNAR_CHUNK_EVENTS):
        rows = slice(start, start + COLUMNAR_CHUNK_EVENTS)
        present = cols.present[rows]
        lengths = np.where(present, 32, -1).astype("<i4")
        payload = cols.images[rows][present].astype(
            "<u4", copy=False).tobytes()
        fp.write(
            f"{_CHUNK_PREFIX} events={len(present)} "
            f"payload={len(payload)}\n"
        )
        fp.write("K " + cols.kind[rows].astype("<u1").tobytes().hex() + "\n")
        fp.write(
            "P " + cols.partition[rows].astype("<i4").tobytes().hex() + "\n"
        )
        fp.write("S " + cols.sector[rows].astype("<i8").tobytes().hex() + "\n")
        fp.write("L " + lengths.tobytes().hex() + "\n")
        fp.write("D " + (payload.hex() if payload else "-") + "\n")
    fp.write(f"{_FOOTER_PREFIX} records={total}\n")


def dumps_event_log(log: "MemoryEventLog") -> str:
    """Serialize an event log to a string."""
    buffer = io.StringIO()
    dump_event_log(log, buffer)
    return buffer.getvalue()


def _apply_event_log_header(
    log: "MemoryEventLog", header: Dict[str, str], name: str, line_no: int
) -> None:
    try:
        log.trace_name = header.get("name", name)
        log.memory_intensity = float(
            header.get("intensity", log.memory_intensity)
        )
        log.instructions = int(
            header.get("instructions", log.instructions)
        )
        log.counter_warmup_passes = int(
            header.get("warmup", log.counter_warmup_passes)
        )
        log.l2_stats.accesses = int(header.get("l2_accesses", 0))
        log.l2_stats.sector_hits = int(header.get("l2_hits", 0))
        log.l2_stats.sector_misses = int(header.get("l2_misses", 0))
    except ValueError as exc:
        raise TraceFormatError(f"bad header: {exc}", line=line_no) from None


def _decode_chunk_blob(
    tag: str, token: str, expected_bytes: int, line_no: int
) -> bytes:
    if tag == "D" and token == "-":
        blob = b""
    else:
        try:
            blob = bytes.fromhex(token)
        except ValueError:
            raise TraceFormatError(
                f"bad hex blob in '{tag}' record", line=line_no
            ) from None
    if len(blob) != expected_bytes:
        raise TraceFormatError(
            f"'{tag}' record holds {len(blob)} bytes, expected "
            f"{expected_bytes} (truncated chunk?)",
            line=line_no,
        )
    return blob


def load_event_log(fp: TextIO, name: str = "imported") -> "MemoryEventLog":
    """Parse an event log from a text stream.

    Structural failures — a missing or misplaced header, a malformed or
    truncated chunk, a negative partition or sector, a value length
    other than 32 or -1, a record count that contradicts the
    ``#repro-end`` footer — raise
    :class:`~repro.common.errors.TraceFormatError` with the offending
    line number.
    """
    from repro.gpu.columnar import EventColumns
    from repro.gpu.simulator import MemoryEventLog

    lines = fp.read().splitlines()
    log = MemoryEventLog(
        trace_name=name, memory_intensity=0.8, instructions=0
    )
    #: Each chunk's decoded columns, in ``EventColumns`` field order.
    chunks: List[Tuple[np.ndarray, ...]] = []
    saw_header = False
    expected_records = None
    index = 0
    while index < len(lines):
        line_no = index + 1
        line = lines[index].strip()
        index += 1
        if not line:
            continue
        if line.startswith(_EVENTS_HEADER_PREFIX):
            header = _parse_header_fields(line[len(_EVENTS_HEADER_PREFIX):])
            _apply_event_log_header(log, header, name, line_no)
            saw_header = True
            continue
        if line.startswith(_CHUNK_PREFIX):
            if not saw_header:
                raise TraceFormatError(
                    f"chunk before the '{_EVENTS_HEADER_PREFIX}' header "
                    "(missing or misplaced header line)",
                    line=line_no,
                )
            fields = _parse_header_fields(line[len(_CHUNK_PREFIX):])
            try:
                n_events = int(fields["events"])
                payload_bytes = int(fields["payload"])
            except (KeyError, ValueError):
                raise TraceFormatError(
                    f"bad '{_CHUNK_PREFIX}' record (expected events=N "
                    "payload=M)",
                    line=line_no,
                ) from None
            if n_events < 0 or payload_bytes < 0:
                raise TraceFormatError(
                    "negative chunk geometry", line=line_no
                )
            sizes = {
                "K": n_events, "P": 4 * n_events, "S": 8 * n_events,
                "L": 4 * n_events, "D": payload_bytes,
            }
            blobs: Dict[str, bytes] = {}
            record_lines: Dict[str, int] = {}
            for tag, expected in sizes.items():
                while index < len(lines) and not lines[index].strip():
                    index += 1
                record_no = index + 1
                record = lines[index].strip() if index < len(lines) else ""
                index += 1
                if not record.startswith(tag + " "):
                    raise TraceFormatError(
                        f"expected '{tag}' column record in chunk",
                        line=record_no,
                    )
                blobs[tag] = _decode_chunk_blob(
                    tag, record[2:].strip(), expected, record_no
                )
                record_lines[tag] = record_no
            kinds = np.frombuffer(blobs["K"], dtype=np.uint8)
            if bool(np.any(kinds > 1)):
                raise TraceFormatError(
                    "event kind byte must be 0 (fill) or 1 (writeback)",
                    line=line_no,
                )
            partitions = np.frombuffer(blobs["P"], dtype="<i4")
            sectors = np.frombuffer(blobs["S"], dtype="<i8")
            lengths = np.frombuffer(blobs["L"], dtype="<i4")
            if partitions.size and (
                int(partitions.min()) < 0 or int(sectors.min()) < 0
            ):
                raise TraceFormatError(
                    "negative partition or sector", line=line_no
                )
            present = lengths == 32
            if not bool(np.all(present | (lengths == -1))):
                raise TraceFormatError(
                    "value length must be 32 bytes (a sector image) or "
                    "-1 (no value)",
                    line=record_lines["L"],
                )
            if 32 * int(np.count_nonzero(present)) != payload_bytes:
                raise TraceFormatError(
                    "payload size disagrees with value lengths",
                    line=line_no,
                )
            images = np.zeros((n_events, 8), dtype="<u4")
            images[present] = np.frombuffer(
                blobs["D"], dtype="<u4"
            ).reshape(-1, 8)
            chunks.append((kinds, partitions, sectors, images, present))
            continue
        if line.startswith(_FOOTER_PREFIX):
            expected_records = _parse_footer(line_no, line)
            continue
        if line.startswith("#"):
            continue
        raise TraceFormatError(
            "unexpected record in event log", line=line_no
        )
    if not saw_header:
        raise TraceFormatError(
            f"event-log file is missing its '{_EVENTS_HEADER_PREFIX}' "
            "header line"
        )
    if chunks:
        log.events = EventColumns(*map(np.concatenate, zip(*chunks)))
    if expected_records is not None and expected_records != len(log.events):
        raise TraceFormatError(
            f"footer declares {expected_records} records but file "
            f"contains {len(log.events)} (truncated file?)"
        )
    return log


def loads_event_log(text: str, name: str = "imported") -> "MemoryEventLog":
    """Parse an event log from a string."""
    return load_event_log(io.StringIO(text), name=name)


_TRAFFIC_HEADER_PREFIX = "#repro-traffic"


def dump_traffic_reports(
    reports: "Mapping[str, TrafficReport]",
    fp: TextIO,
    name: str = "snapshot",
) -> None:
    """Serialize per-engine traffic reports as snapshot sections.

    One ``#repro-traffic`` section per engine, in mapping order; inside a
    section, one ``<stream> <bytes> <transactions>`` line per stream that
    carried any traffic (absent streams reload as zero), closed by the
    shared ``#repro-end records=N`` footer so truncation inside a section
    is detected. This is the golden-snapshot format of the conformance
    corpus (see :mod:`repro.conformance.corpus`).
    """
    from repro.mem.traffic import Stream

    if any(ch.isspace() for ch in name):
        raise TraceError("snapshot name cannot contain whitespace")
    for engine, report in reports.items():
        if not engine or any(ch.isspace() for ch in engine):
            raise TraceError(f"bad engine key {engine!r} in snapshot")
        lines = [
            (stream.value, report.bytes_by_stream[stream],
             report.transactions_by_stream[stream])
            for stream in Stream
            if report.bytes_by_stream[stream]
            or report.transactions_by_stream[stream]
        ]
        fp.write(f"{_TRAFFIC_HEADER_PREFIX} name={name} engine={engine}\n")
        for stream_value, nbytes, transactions in lines:
            fp.write(f"{stream_value} {nbytes} {transactions}\n")
        fp.write(f"{_FOOTER_PREFIX} records={len(lines)}\n")


def dumps_traffic_reports(
    reports: "Mapping[str, TrafficReport]", name: str = "snapshot"
) -> str:
    """Serialize per-engine traffic reports to a string."""
    buffer = io.StringIO()
    dump_traffic_reports(reports, buffer, name=name)
    return buffer.getvalue()


def load_traffic_reports(fp: TextIO) -> "Dict[str, TrafficReport]":
    """Parse engine-keyed traffic-report sections from a text stream.

    Returns the reports in file order. Malformed records, unknown stream
    names, duplicate engine sections, and footer/record-count mismatches
    raise :class:`~repro.common.errors.TraceFormatError` with the
    offending line number.
    """
    from repro.mem.traffic import Stream, TrafficReport

    reports: Dict[str, TrafficReport] = {}
    engine = None
    bytes_by_stream: Dict[Stream, int] = {}
    transactions_by_stream: Dict[Stream, int] = {}
    records = 0

    def close_section(line_no: int, expected: Optional[int]) -> None:
        if engine is None:
            return
        if expected is not None and expected != records:
            raise TraceFormatError(
                f"footer declares {expected} records but section "
                f"{engine!r} contains {records} (truncated file?)",
                line=line_no,
            )
        reports[engine] = TrafficReport(
            bytes_by_stream=bytes_by_stream,
            transactions_by_stream=transactions_by_stream,
        )

    for line_no, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(_TRAFFIC_HEADER_PREFIX):
            close_section(line_no, None)
            header = _parse_header_fields(line[len(_TRAFFIC_HEADER_PREFIX):])
            engine = header.get("engine")
            if not engine:
                raise TraceFormatError(
                    "traffic section header is missing engine=", line=line_no
                )
            if engine in reports:
                raise TraceFormatError(
                    f"duplicate traffic section for engine {engine!r}",
                    line=line_no,
                )
            bytes_by_stream = {}
            transactions_by_stream = {}
            records = 0
            continue
        if line.startswith(_FOOTER_PREFIX):
            close_section(line_no, _parse_footer(line_no, line))
            engine = None
            continue
        if line.startswith("#"):
            continue
        if engine is None:
            raise TraceFormatError(
                f"record before the '{_TRAFFIC_HEADER_PREFIX}' header "
                "(missing or misplaced header line)",
                line=line_no,
            )
        tokens = line.split()
        if len(tokens) != 3:
            raise TraceFormatError(
                "expected '<stream> <bytes> <transactions>'", line=line_no
            )
        try:
            stream = Stream(tokens[0])
        except ValueError:
            raise TraceFormatError(
                f"unknown traffic stream {tokens[0]!r}", line=line_no
            ) from None
        try:
            nbytes = int(tokens[1])
            transactions = int(tokens[2])
        except ValueError as exc:
            raise TraceFormatError(str(exc), line=line_no) from None
        if stream in bytes_by_stream:
            raise TraceFormatError(
                f"duplicate stream {stream.value!r} in section", line=line_no
            )
        if nbytes < 0 or transactions < 0:
            raise TraceFormatError("negative traffic entry", line=line_no)
        bytes_by_stream[stream] = nbytes
        transactions_by_stream[stream] = transactions
        records += 1
    if engine is not None:
        raise TraceFormatError(
            f"unterminated traffic section {engine!r} "
            f"(missing '{_FOOTER_PREFIX}' footer)"
        )
    if not reports:
        raise TraceFormatError("snapshot file contains no traffic sections")
    return reports


def loads_traffic_reports(text: str) -> "Dict[str, TrafficReport]":
    """Parse engine-keyed traffic-report sections from a string."""
    return load_traffic_reports(io.StringIO(text))


def merge_traces(traces: Iterable[Trace], name: str = "merged") -> Trace:
    """Concatenate traces (multi-kernel executions), column by column.

    Memory intensity is access-weighted; warmup takes the maximum (the
    deepest history wins, conservatively).
    """
    traces = list(traces)
    if not traces:
        raise TraceError("nothing to merge")
    weighted_intensity = 0.0
    instructions = 0
    warmup = 0
    for trace in traces:
        weighted_intensity += trace.memory_intensity * len(trace)
        instructions += trace.instructions
        warmup = max(warmup, trace.counter_warmup_passes)
    images = present = None
    if any(trace.images is not None for trace in traces):
        images = np.concatenate([
            trace.images if trace.images is not None
            else np.zeros((trace.sector_count, 8), dtype="<u4")
            for trace in traces
        ])
        present = np.concatenate([
            trace.present if trace.images is not None
            else np.zeros(trace.sector_count, dtype=bool)
            for trace in traces
        ])
    return Trace.from_columns(
        name,
        np.concatenate([trace.line_addrs for trace in traces]),
        np.concatenate([trace.sector_masks for trace in traces]),
        np.concatenate([trace.writes for trace in traces]),
        images,
        present,
        memory_intensity=weighted_intensity / sum(map(len, traces)),
        instructions=instructions,
        counter_warmup_passes=warmup,
    )


# -- crash-atomic path-based savers -------------------------------------------
#
# The dump_* functions above write to an open stream; these write to a
# *path* via a same-directory temp file and os.replace, so a crash (or
# kill -9) mid-write can never leave a torn artifact where a complete
# one is expected. Golden corpus updates and cache exports go through
# these.

def save_trace(trace: Trace, path: "str | PathLike[str]") -> None:
    """Atomically persist *trace* in the ``dump_trace`` format."""
    atomic_write_text(path, dumps_trace(trace))


def save_event_log(
    log: "MemoryEventLog", path: "str | PathLike[str]"
) -> None:
    """Atomically persist *log* in the ``dump_event_log`` format."""
    atomic_write_text(path, dumps_event_log(log))


def save_traffic_reports(
    reports: "Mapping[str, TrafficReport]",
    path: "str | PathLike[str]",
    name: str = "snapshot",
) -> None:
    """Atomically persist snapshot sections for *reports*."""
    atomic_write_text(path, dumps_traffic_reports(reports, name=name))
