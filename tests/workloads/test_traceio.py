"""Tests for trace import/export."""

import io

import pytest

from repro.common.errors import TraceError, TraceFormatError
from repro.workloads.benchmarks import BENCHMARKS, build_trace
from repro.workloads.trace import Trace, TraceAccess
from repro.workloads.traceio import (
    dump_trace,
    dumps_trace,
    load_trace,
    loads_trace,
    merge_traces,
)


class TestRoundtrip:
    def test_full_roundtrip_preserves_everything(self):
        original = build_trace("bfs", length=80, seed=4)
        recovered = loads_trace(dumps_trace(original))
        assert recovered.name == original.name
        assert recovered.memory_intensity == original.memory_intensity
        assert recovered.instructions == original.instructions
        assert recovered.counter_warmup_passes == original.counter_warmup_passes
        assert len(recovered) == len(original)
        for a, b in zip(original, recovered):
            assert (a.line_addr, a.sector_mask, a.write) == (
                b.line_addr, b.sector_mask, b.write
            )
            assert a.values == b.values

    def test_roundtrip_without_values(self):
        original = build_trace("lbm", length=40, with_values=False)
        recovered = loads_trace(dumps_trace(original))
        assert all(a.values is None for a in recovered)

    def test_stream_interface(self):
        original = build_trace("histo", length=20)
        buffer = io.StringIO()
        dump_trace(original, buffer)
        buffer.seek(0)
        assert len(load_trace(buffer)) == 20


#: Minimal valid header for hand-built parsing fixtures.
HEADER = "#repro-trace name=t\n"


class TestParsing:
    def test_minimal_line(self):
        (access,) = loads_trace(HEADER + "R 0x0 0b0001\n")
        assert access.line_addr == 0
        assert not access.write

    def test_hex_image_parsed(self):
        image = bytes(range(32)).hex()
        (access,) = loads_trace(HEADER + f"W 0x80 0b0010 {image}\n")
        assert access.value_for(1) == bytes(range(32))

    def test_dash_skips_image(self):
        (access,) = loads_trace(HEADER + "R 0x0 0b0011 - -\n")
        assert access.values is None

    def test_comments_and_blanks_ignored(self):
        trace = loads_trace(HEADER + "# hello\n\nR 0x0 0b0001\n")
        assert len(trace) == 1

    def test_footer_accepted(self):
        trace = loads_trace(HEADER + "R 0x0 0b0001\n#repro-end records=1\n")
        assert len(trace) == 1

    def test_header_sets_profile_facts(self):
        text = (
            "#repro-trace name=mykernel intensity=0.55 "
            "instructions=4242 warmup=7\n"
            "R 0x0 0b0001\n"
        )
        trace = loads_trace(text)
        assert trace.name == "mykernel"
        assert trace.memory_intensity == 0.55
        assert trace.instructions == 4242
        assert trace.counter_warmup_passes == 7


class TestErrors:
    def test_bad_direction(self):
        with pytest.raises(TraceError):
            loads_trace(HEADER + "X 0x0 0b0001\n")

    def test_short_line(self):
        with pytest.raises(TraceError):
            loads_trace(HEADER + "R 0x0\n")

    def test_wrong_image_count(self):
        with pytest.raises(TraceError):
            loads_trace(HEADER + "R 0x0 0b0011 " + "00" * 32 + "\n")

    def test_bad_hex(self):
        with pytest.raises(TraceError):
            loads_trace(HEADER + "R 0x0 0b0001 zz\n")

    def test_wrong_image_size(self):
        with pytest.raises(TraceError):
            loads_trace(HEADER + "R 0x0 0b0001 aabb\n")

    def test_empty_file(self):
        with pytest.raises(TraceError):
            loads_trace(HEADER + "# nothing here\n")

    def test_missing_header_rejected(self):
        with pytest.raises(TraceFormatError) as info:
            loads_trace("R 0x0 0b0001\n")
        assert info.value.line == 1
        assert "header" in str(info.value)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(TraceFormatError) as info:
            loads_trace(HEADER + "R 0x0 0b0001\nX 0x80 0b0001\n")
        assert info.value.line == 3
        assert str(info.value).startswith("line 3:")

    def test_bad_header_value_names_line(self):
        with pytest.raises(TraceFormatError) as info:
            loads_trace("#repro-trace name=t intensity=fast\nR 0x0 0b0001\n")
        assert info.value.line == 1

    def test_truncated_mid_record_rejected(self):
        full = dumps_trace(build_trace("bfs", length=12, seed=3))
        # Chop inside the last record line: its hex image loses bytes.
        truncated = full[: full.rfind("records=") - len("#repro-end ")]
        truncated = truncated[:-20]
        with pytest.raises(TraceFormatError) as info:
            loads_trace(truncated)
        assert info.value.line is not None

    def test_truncated_between_records_rejected_by_footer(self):
        full = dumps_trace(build_trace("bfs", length=12, seed=3))
        lines = full.splitlines(keepends=True)
        # Drop one whole record but keep the footer: count mismatch.
        del lines[-2]
        with pytest.raises(TraceFormatError) as info:
            loads_trace("".join(lines))
        assert "footer declares" in str(info.value)

    def test_misaligned_address_names_line(self):
        with pytest.raises(TraceFormatError) as info:
            loads_trace(HEADER + "R 0x7 0b0001\n")
        assert info.value.line == 2

    def test_address_beyond_the_int64_column_names_line(self):
        with pytest.raises(TraceFormatError) as info:
            loads_trace(HEADER + "R 0x0 0b0001\nW 0x1" + "0" * 17
                        + " 0b0001\n")
        assert info.value.line == 3
        assert "exceeds 63 bits" in str(info.value)


class TestMerge:
    def test_merge_concatenates(self):
        a = Trace(name="a", accesses=[TraceAccess(0, 1, False)],
                  memory_intensity=1.0)
        b = Trace(name="b", accesses=[TraceAccess(128, 1, True)] * 3,
                  memory_intensity=0.5, counter_warmup_passes=9)
        merged = merge_traces([a, b])
        assert len(merged) == 4
        assert merged.memory_intensity == pytest.approx((1.0 + 3 * 0.5) / 4)
        assert merged.counter_warmup_passes == 9

    def test_merge_nothing_rejected(self):
        with pytest.raises(TraceError):
            merge_traces([])

    @staticmethod
    def records(trace):
        return [(a.line_addr, a.sector_mask, a.write, a.values)
                for a in trace]

    def test_merge_of_built_traces_concatenates_their_records(self):
        a = build_trace("bfs", length=300, seed=5)
        b = build_trace("lbm", length=200, seed=6)
        merged = merge_traces([a, b], name="ab")
        assert self.records(merged) == self.records(a) + self.records(b)
        assert merged.name == "ab"
        assert merged.instructions == a.instructions + b.instructions
        assert merged.counter_warmup_passes == max(
            a.counter_warmup_passes, b.counter_warmup_passes)
        assert merged.memory_intensity == pytest.approx(
            (300 * a.memory_intensity + 200 * b.memory_intensity) / 500)

    def test_merge_with_a_trace_without_values(self):
        """The trace without values contributes rows without images."""
        a = build_trace("lbm", length=50, seed=5, with_values=False)
        b = build_trace("bfs", length=60, seed=6)
        merged = merge_traces([a, b, a])
        assert self.records(merged) == (
            self.records(a) + self.records(b) + self.records(a))
        assert merged.images is not None
        assert not merged.present[:a.sector_count].any()
        assert merged.present[a.sector_count:][:b.sector_count].all()

    def test_merge_without_values_has_no_matrix(self):
        a = build_trace("lbm", length=50, seed=5, with_values=False)
        merged = merge_traces([a, a])
        assert merged.images is None and merged.present is None
        assert self.records(merged) == self.records(a) * 2


def reference_dump(trace):
    """The per-access dumper over records that the column dumper
    replaced."""
    lines = [
        f"#repro-trace name={trace.name} "
        f"intensity={trace.memory_intensity} "
        f"instructions={trace.instructions} "
        f"warmup={trace.counter_warmup_passes}"
    ]
    for access in trace:
        parts = [
            "W" if access.write else "R",
            f"0x{access.line_addr:08x}",
            f"0b{access.sector_mask:04b}",
        ]
        if access.values is not None:
            for slot in sorted(access.sectors()):
                image = access.value_for(slot)
                parts.append(image.hex() if image is not None else "-")
        lines.append(" ".join(parts))
    lines.append(f"#repro-end records={len(trace)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_column_dump_matches_per_access_dumper(name):
    """All 20 profiles, at three lengths and two seeds, with and without
    values: the dumped text (and so every disk-cache key) is unchanged."""
    for length in (1, 7, 2000):
        for seed in (2023, 7):
            for with_values in (True, False):
                trace = build_trace(name, length=length, seed=seed,
                                    with_values=with_values)
                assert dumps_trace(trace) == reference_dump(trace), (
                    name, length, seed, with_values)


def test_partly_imaged_dump_matches_per_access_dumper():
    image = bytes(range(32))
    trace = Trace("partial", [
        TraceAccess(0, 0b0110, True, [(2, image)]),
        TraceAccess(128, 0b0001, False),
        TraceAccess(256, 0b1111, False, [(0, image), (3, image)]),
    ])
    text = dumps_trace(trace)
    assert text == reference_dump(trace)
    assert f"W 0x00000000 0b0110 - {image.hex()}\n" in text
    assert "R 0x00000080 0b0001\n" in text


class TestEventLogRoundtrip:
    def _log(self, benchmark="bfs", length=120, seed=6):
        from repro.gpu.config import VOLTA
        from repro.gpu.simulator import simulate_l2

        return simulate_l2(build_trace(benchmark, length=length, seed=seed),
                           VOLTA)

    def test_full_roundtrip_preserves_everything(self):
        from repro.workloads.traceio import dumps_event_log, loads_event_log

        original = self._log()
        recovered = loads_event_log(dumps_event_log(original))
        assert recovered.trace_name == original.trace_name
        assert recovered.memory_intensity == original.memory_intensity
        assert recovered.instructions == original.instructions
        assert recovered.counter_warmup_passes == (
            original.counter_warmup_passes
        )
        assert recovered.fill_sectors == original.fill_sectors
        assert recovered.writeback_sectors == original.writeback_sectors
        assert recovered.l2_stats == original.l2_stats
        assert len(recovered.events) == len(original.events)
        assert list(recovered.events.iter_events()) == list(
            original.events.iter_events()
        )

    def test_roundtrip_replays_identically(self):
        from repro.gpu.config import VOLTA
        from repro.gpu.simulator import replay_events
        from repro.harness.runner import EngineSpec
        from repro.secure.plutus import PlutusEngine
        from repro.workloads.traceio import dumps_event_log, loads_event_log

        original = self._log("lbm")
        recovered = loads_event_log(dumps_event_log(original))
        factory = EngineSpec(PlutusEngine)
        a = replay_events(original, factory, VOLTA)
        b = replay_events(recovered, factory, VOLTA)
        assert a.traffic == b.traffic
        assert a.engine_stats == b.engine_stats

    def test_stream_interface(self):
        from repro.workloads.traceio import dump_event_log, load_event_log

        original = self._log()
        buffer = io.StringIO()
        dump_event_log(original, buffer)
        buffer.seek(0)
        assert len(load_event_log(buffer).events) == len(original.events)

    def test_whitespace_trace_name_rejected(self):
        from repro.workloads.traceio import dumps_event_log

        log = self._log()
        log.trace_name = "bad name"
        with pytest.raises(TraceError):
            dumps_event_log(log)


def _event_chunk(kind="00", partition=3, sector=7, length=-1, payload=""):
    """One hand-encoded single-event chunk of the event-log format."""
    return (
        f"#chunk events=1 payload={len(payload) // 2}\n"
        f"K {kind}\n"
        f"P {partition.to_bytes(4, 'little', signed=True).hex()}\n"
        f"S {sector.to_bytes(8, 'little', signed=True).hex()}\n"
        f"L {length.to_bytes(4, 'little', signed=True).hex()}\n"
        f"D {payload or '-'}\n"
    )


class TestEventLogParsing:
    HEADER = ("#repro-events-columnar name=k intensity=0.5 instructions=10 "
              "warmup=2 l2_accesses=4 l2_hits=3 l2_misses=1\n")

    def test_header_required(self):
        from repro.workloads.traceio import loads_event_log

        with pytest.raises(TraceError, match="missing its"):
            loads_event_log("#repro-end records=0\n")

    def test_header_populates_profile_and_l2_stats(self):
        from repro.workloads.traceio import loads_event_log

        log = loads_event_log(
            self.HEADER + _event_chunk() + "#repro-end records=1\n"
        )
        assert log.trace_name == "k"
        assert log.memory_intensity == 0.5
        assert log.instructions == 10
        assert log.counter_warmup_passes == 2
        assert (log.l2_stats.accesses, log.l2_stats.sector_hits,
                log.l2_stats.sector_misses) == (4, 3, 1)
        assert log.fill_sectors == 1 and log.writeback_sectors == 0
        [event] = log.events.iter_events()
        assert (event.partition, event.sector_index, event.values) == (
            3, 7, None
        )

    def test_bad_kind_rejected(self):
        from repro.workloads.traceio import loads_event_log

        with pytest.raises(TraceError, match="kind byte"):
            loads_event_log(self.HEADER + _event_chunk(kind="02"))

    def test_short_line_rejected(self):
        from repro.workloads.traceio import loads_event_log

        chunk = _event_chunk().replace(" payload=0", "")
        with pytest.raises(TraceError, match="expected events=N"):
            loads_event_log(self.HEADER + chunk)

    def test_negative_partition_rejected(self):
        from repro.workloads.traceio import loads_event_log

        with pytest.raises(TraceError, match="negative partition"):
            loads_event_log(self.HEADER + _event_chunk(partition=-1))

    def test_negative_sector_rejected(self):
        from repro.workloads.traceio import loads_event_log

        with pytest.raises(TraceError, match="negative partition or sector"):
            loads_event_log(self.HEADER + _event_chunk(sector=-1))

    def test_wrong_image_size_rejected(self):
        from repro.workloads.traceio import loads_event_log

        chunk = _event_chunk(kind="01", length=2, payload="aabb")
        with pytest.raises(TraceError, match="32 bytes"):
            loads_event_log(self.HEADER + chunk)

    def test_bad_hex_rejected(self):
        from repro.workloads.traceio import loads_event_log

        chunk = _event_chunk(kind="01", length=32, payload="zz" * 32)
        with pytest.raises(TraceError, match="bad hex blob in 'D'"):
            loads_event_log(self.HEADER + chunk)

    def test_line_format_header_is_not_an_event_log(self):
        # A one-event-per-line file is not an event log: it fails
        # loudly instead of loading as an empty or partial log.
        from repro.workloads.traceio import loads_event_log

        with pytest.raises(TraceError, match="unexpected record"):
            loads_event_log(
                "#repro-events name=k intensity=0.5 instructions=10\n"
                "F 0 0 -\n"
            )


class TestAtomicSavers:
    """The crash-atomic path savers mirror the stream dumpers exactly."""

    def test_save_trace_matches_dumps(self, tmp_path):
        from repro.workloads.traceio import dumps_trace, save_trace

        trace = build_trace("bfs", length=30, seed=5)
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        assert path.read_text() == dumps_trace(trace)

    def test_save_event_log_round_trips(self, tmp_path):
        from repro.gpu.config import VOLTA
        from repro.gpu.simulator import simulate_l2
        from repro.workloads.traceio import (
            dumps_event_log,
            load_event_log,
            save_event_log,
        )

        log = simulate_l2(build_trace("bfs", length=200, seed=5), VOLTA)
        path = tmp_path / "log.events"
        save_event_log(log, path)
        with path.open("r", encoding="utf-8") as fp:
            reloaded = load_event_log(fp)
        assert dumps_event_log(reloaded) == dumps_event_log(log)

    def test_save_traffic_reports_round_trips(self, tmp_path):
        from repro.gpu.config import VOLTA
        from repro.gpu.simulator import replay_events, simulate_l2
        from repro.harness.runner import EngineSpec
        from repro.secure.engine import NoSecurityEngine
        from repro.workloads.traceio import (
            load_traffic_reports,
            save_traffic_reports,
        )

        log = simulate_l2(build_trace("bfs", length=200, seed=5), VOLTA)
        result = replay_events(log, EngineSpec(NoSecurityEngine), VOLTA)
        path = tmp_path / "snap.txt"
        save_traffic_reports({"nosec": result.traffic}, path, name="t")
        with path.open("r", encoding="utf-8") as fp:
            reloaded = load_traffic_reports(fp)
        assert set(reloaded) == {"nosec"}
        assert (
            reloaded["nosec"].bytes_by_stream
            == result.traffic.bytes_by_stream
        )
