"""Tests for DRAM traffic accounting."""

import pickle

import pytest

from repro.mem.traffic import (
    METADATA_STREAMS,
    Stream,
    TrafficCounter,
    TrafficReport,
)


class TestCounter:
    def test_record_accumulates(self):
        counter = TrafficCounter()
        counter.record(Stream.DATA_READ, 32)
        counter.record(Stream.DATA_READ, 64, transactions=2)
        assert counter.bytes_for(Stream.DATA_READ) == 96
        assert counter.transactions_for(Stream.DATA_READ) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficCounter().record(Stream.MAC_READ, -1)

    def test_unpickled_stream_indexes_counter_and_report(self):
        """Streams hash by identity; unpickling returns the member
        itself, so a restored one still finds its entries."""
        restored = pickle.loads(pickle.dumps(Stream.MAC_READ))
        counter = TrafficCounter()
        counter.record(restored, 32)
        counter.record(Stream.MAC_READ, 64)
        assert counter.bytes_for(restored) == 96
        report = pickle.loads(pickle.dumps(counter.report()))
        assert report.bytes_by_stream[restored] == 96
        assert report.transactions_for(restored) == 2
        assert report.mac_bytes == 96

    def test_merge(self):
        a, b = TrafficCounter(), TrafficCounter()
        a.record(Stream.MAC_READ, 32)
        b.record(Stream.MAC_READ, 64)
        b.record(Stream.BMT_WRITE, 128)
        a.merge(b)
        assert a.bytes_for(Stream.MAC_READ) == 96
        assert a.bytes_for(Stream.BMT_WRITE) == 128

    def test_merge_of_partitions_equals_sum_of_reports(self):
        """Folding N partition counters == summing their reports."""
        partitions = []
        for p in range(4):
            counter = TrafficCounter()
            for i, stream in enumerate(Stream):
                counter.record(stream, 32 * (p + i + 1), transactions=p + i + 1)
            partitions.append(counter)
        merged = TrafficCounter()
        for counter in partitions:
            merged.merge(counter)
        merged_report = merged.report()
        part_reports = [c.report() for c in partitions]
        for stream in Stream:
            assert merged_report.bytes_by_stream[stream] == sum(
                r.bytes_by_stream[stream] for r in part_reports
            )
            assert merged_report.transactions_by_stream[stream] == sum(
                r.transactions_by_stream[stream] for r in part_reports
            )
        assert merged_report.total_bytes == sum(
            r.total_bytes for r in part_reports
        )
        assert merged_report.total_transactions == sum(
            r.total_transactions for r in part_reports
        )

    def test_reset_zeroes_in_place(self):
        counter = TrafficCounter()
        counter.record(Stream.DATA_READ, 96, transactions=3)
        counter.record(Stream.BMT_WRITE, 32)
        counter.reset()
        for stream in Stream:
            assert counter.bytes_for(stream) == 0
            assert counter.transactions_for(stream) == 0
        # Still usable after reset: interval profiling reuses it.
        counter.record(Stream.DATA_READ, 32)
        assert counter.bytes_for(Stream.DATA_READ) == 32

    def test_interval_deltas_via_reset_and_merge(self):
        """The interval-snapshot idiom: totals survive window resets."""
        live, total = TrafficCounter(), TrafficCounter()
        live.record(Stream.DATA_READ, 64, transactions=2)
        total.merge(live)
        live.reset()
        live.record(Stream.MAC_READ, 32)
        total.merge(live)
        live.reset()
        report = total.report()
        assert report.bytes_by_stream[Stream.DATA_READ] == 64
        assert report.bytes_by_stream[Stream.MAC_READ] == 32


class TestReportViews:
    def make_report(self):
        counter = TrafficCounter()
        counter.record(Stream.DATA_READ, 1000)
        counter.record(Stream.DATA_WRITE, 500)
        counter.record(Stream.COUNTER_READ, 300)
        counter.record(Stream.MAC_READ, 200)
        counter.record(Stream.BMT_READ, 100)
        counter.record(Stream.COMPACT_COUNTER_READ, 50)
        counter.record(Stream.COMPACT_BMT_READ, 25)
        return counter.report()

    def test_totals(self):
        report = self.make_report()
        assert report.total_bytes == 2175
        assert report.data_bytes == 1500
        assert report.metadata_bytes == 675

    def test_counter_bytes_include_compact_layer(self):
        assert self.make_report().counter_bytes == 350

    def test_tree_bytes_include_mini_tree(self):
        assert self.make_report().tree_bytes == 125

    def test_metadata_overhead(self):
        assert self.make_report().metadata_overhead == pytest.approx(675 / 1500)

    def test_breakdown_covers_everything(self):
        report = self.make_report()
        assert sum(report.breakdown().values()) == report.total_bytes

    def test_metadata_stream_partition(self):
        """Every stream is data or metadata, never both."""
        data_streams = {Stream.DATA_READ, Stream.DATA_WRITE}
        assert data_streams | METADATA_STREAMS == set(Stream)
        assert not data_streams & METADATA_STREAMS


class TestReduction:
    def test_reduction_vs_baseline(self):
        base = TrafficCounter()
        base.record(Stream.MAC_READ, 1000)
        improved = TrafficCounter()
        improved.record(Stream.MAC_READ, 400)
        reduction = improved.report().metadata_reduction_vs(base.report())
        assert reduction == pytest.approx(0.6)

    def test_reduction_against_empty_baseline(self):
        empty = TrafficReport(bytes_by_stream={}, transactions_by_stream={})
        assert empty.metadata_reduction_vs(empty) == 0.0

    def test_overhead_of_pure_data(self):
        counter = TrafficCounter()
        counter.record(Stream.DATA_READ, 10)
        assert counter.report().metadata_overhead == 0.0


class TestReportConstruction:
    def test_transactions_required(self):
        """Reports can no longer be built without transaction data."""
        with pytest.raises(TypeError):
            TrafficReport(bytes_by_stream={Stream.DATA_READ: 32})

    def test_missing_streams_normalized_to_zero(self):
        report = TrafficReport(
            bytes_by_stream={Stream.DATA_READ: 32},
            transactions_by_stream={Stream.DATA_READ: 1},
        )
        assert set(report.bytes_by_stream) == set(Stream)
        assert set(report.transactions_by_stream) == set(Stream)
        assert report.bytes_by_stream[Stream.MAC_READ] == 0
        assert report.transactions_for(Stream.MAC_READ) == 0

    def test_negative_traffic_rejected(self):
        with pytest.raises(ValueError):
            TrafficReport(
                bytes_by_stream={Stream.DATA_READ: -1},
                transactions_by_stream={},
            )
        with pytest.raises(ValueError):
            TrafficReport(
                bytes_by_stream={},
                transactions_by_stream={Stream.DATA_READ: -1},
            )

    def test_unknown_stream_rejected(self):
        with pytest.raises(ValueError):
            TrafficReport(
                bytes_by_stream={"bogus": 1},
                transactions_by_stream={},
            )

    def test_report_carries_transactions(self):
        counter = TrafficCounter()
        counter.record(Stream.DATA_READ, 96, transactions=3)
        report = counter.report()
        assert report.transactions_for(Stream.DATA_READ) == 3
        assert report.total_transactions == 3
