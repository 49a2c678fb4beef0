"""Tests for the event-log serialization: hex-encoded column chunks."""

import io

import pytest

from repro.common.errors import TraceFormatError
from repro.gpu.columnar import EventColumns, EventKind, MemoryEvent
from repro.gpu.simulator import MemoryEventLog
from repro.workloads.traceio import (
    COLUMNAR_CHUNK_EVENTS,
    dump_event_log,
    dumps_event_log,
    load_event_log,
    loads_event_log,
)

V32 = bytes(range(32))


def _small_events():
    return [
        MemoryEvent(EventKind.FILL, sector % 3, sector,
                    V32 if sector % 2 else None)
        for sector in range(7)
    ] + [
        MemoryEvent(EventKind.WRITEBACK, sector % 2, sector + 10, V32)
        for sector in range(4)
    ]


def _small_log(events=None):
    return MemoryEventLog(
        trace_name="col", memory_intensity=0.25, instructions=9,
        counter_warmup_passes=5,
        events=EventColumns.from_events(
            _small_events() if events is None else events
        ),
    )


def _assert_logs_equal(a, b):
    assert b.trace_name == a.trace_name
    assert b.memory_intensity == a.memory_intensity
    assert b.instructions == a.instructions
    assert b.counter_warmup_passes == a.counter_warmup_passes
    assert b.fill_sectors == a.fill_sectors
    assert b.writeback_sectors == a.writeback_sectors
    assert list(b.events.iter_events()) == list(a.events.iter_events())


class TestColumnarRoundtrip:
    def test_roundtrip_preserves_everything(self):
        log = _small_log()
        text = dumps_event_log(log)
        assert text.startswith("#repro-events-columnar ")
        _assert_logs_equal(log, loads_event_log(text))

    def test_multi_chunk_roundtrip(self):
        log = _small_log(_small_events() + [
            MemoryEvent(EventKind.WRITEBACK, sector % 5, sector,
                        V32 if sector % 3 else None)
            for sector in range(2 * COLUMNAR_CHUNK_EVENTS)
        ])
        text = dumps_event_log(log)
        assert text.count("#chunk ") == 3
        _assert_logs_equal(log, loads_event_log(text))

    def test_redump_is_identical_text(self):
        log = _small_log()
        text = dumps_event_log(log)
        again = dumps_event_log(loads_event_log(text))
        assert again == text

    def test_stream_interface(self):
        log = _small_log()
        buffer = io.StringIO()
        dump_event_log(log, buffer)
        buffer.seek(0)
        _assert_logs_equal(log, load_event_log(buffer))

    def test_default_chunk_capacity_is_sane(self):
        assert COLUMNAR_CHUNK_EVENTS >= 1


def _mutate_line(text, prefix, rewrite):
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            lines[i] = rewrite(line)
            return "".join(lines)
    raise AssertionError(f"no line starts with {prefix!r}")


class TestColumnarErrors:
    def _text(self):
        return dumps_event_log(_small_log())

    def test_bad_kind_byte_rejected(self):
        bad = _mutate_line(
            self._text(), "K ", lambda line: "K 07" + line[4:]
        )
        with pytest.raises(TraceFormatError, match="kind byte"):
            loads_event_log(bad)

    def test_truncated_payload_rejected(self):
        bad = _mutate_line(
            self._text(), "D ", lambda l: l[:-9] + "\n"
        )
        with pytest.raises(TraceFormatError, match="bytes, expected"):
            loads_event_log(bad)

    def test_non_hex_column_rejected(self):
        bad = _mutate_line(
            self._text(), "P ", lambda l: "P zz" + l[len("P zz"):]
        )
        with pytest.raises(TraceFormatError, match="bad hex"):
            loads_event_log(bad)

    def test_missing_column_record_rejected(self):
        lines = [
            l for l in self._text().splitlines(keepends=True)
            if not l.startswith("S ")
        ]
        with pytest.raises(TraceFormatError, match="expected 'S'"):
            loads_event_log("".join(lines))

    def test_footer_count_mismatch_rejected(self):
        bad = _mutate_line(
            self._text(), "#repro-end",
            lambda l: "#repro-end records=99\n",
        )
        with pytest.raises(TraceFormatError, match="99 records"):
            loads_event_log(bad)

    @pytest.mark.parametrize("length", [16, -2, -2**31])
    def test_length_other_than_32_or_minus_one_rejected(self, length):
        # A short image, or a negative length other than -1 (ffffffff),
        # the one mark of an event without a value.
        image = V32 if length > 0 else None
        text = dumps_event_log(
            _small_log([MemoryEvent(EventKind.FILL, 0, 1, image)])
        )
        bad = _mutate_line(
            text, "L ",
            lambda l: "L " + length.to_bytes(4, "little", signed=True).hex()
            + "\n",
        )
        with pytest.raises(TraceFormatError, match="value length") as info:
            loads_event_log(bad)
        assert info.value.line == 6  # header, #chunk, K, P, S, then L

    def test_payload_size_disagreeing_with_lengths_rejected(self):
        # Two images declared, one image's worth of payload given.
        text = dumps_event_log(_small_log([
            MemoryEvent(EventKind.FILL, 0, 1, V32),
            MemoryEvent(EventKind.FILL, 0, 2, None),
        ]))
        bad = _mutate_line(
            text, "L ",
            lambda l: "L " + (32).to_bytes(4, "little").hex() * 2 + "\n",
        )
        with pytest.raises(TraceFormatError, match="payload size"):
            loads_event_log(bad)

    def test_chunk_before_header_rejected(self):
        text = self._text()
        lines = text.splitlines(keepends=True)
        body = "".join(lines[1:])  # drop the header line
        with pytest.raises(TraceFormatError, match="header"):
            loads_event_log(body)
