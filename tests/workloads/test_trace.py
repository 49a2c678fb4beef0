"""Tests for trace records and the column form they are read from."""

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.workloads.trace import Trace, TraceAccess


class TestTraceAccess:
    def test_basic_construction(self):
        access = TraceAccess(0x100, 0b0101, False)
        assert list(access.sectors()) == [0, 2]
        assert access.sector_count == 2

    def test_alignment_enforced(self):
        with pytest.raises(TraceError):
            TraceAccess(0x101, 0b0001, False)

    def test_mask_range_enforced(self):
        with pytest.raises(TraceError):
            TraceAccess(0x100, 0, False)
        with pytest.raises(TraceError):
            TraceAccess(0x100, 16, False)

    def test_values_must_match_mask(self):
        with pytest.raises(TraceError):
            TraceAccess(0x100, 0b0001, False, [(1, b"\x00" * 32)])

    def test_values_must_be_sector_sized(self):
        with pytest.raises(TraceError):
            TraceAccess(0x100, 0b0001, False, [(0, b"\x00" * 16)])

    def test_value_lookup(self):
        image = bytes(range(32))
        access = TraceAccess(0x100, 0b0011, True, [(0, image)])
        assert access.value_for(0) == image
        assert access.value_for(1) is None

    def test_value_lookup_without_values(self):
        assert TraceAccess(0x100, 0b0001, False).value_for(0) is None

    def test_repr_is_informative(self):
        assert "W" in repr(TraceAccess(0x100, 0b0001, True))
        assert "R" in repr(TraceAccess(0x100, 0b0001, False))


class TestTrace:
    def make(self):
        return Trace(
            name="t",
            accesses=[
                TraceAccess(0x0, 0b1111, False),
                TraceAccess(0x80, 0b0001, True),
                TraceAccess(0x0, 0b0001, False),
            ],
            memory_intensity=0.7,
        )

    def test_read_write_counts(self):
        trace = self.make()
        assert trace.read_accesses == 2
        assert trace.write_accesses == 1
        assert trace.read_fraction == pytest.approx(2 / 3)

    def test_footprint(self):
        trace = self.make()
        assert trace.touched_lines == 2
        assert trace.footprint_bytes == 256

    def test_default_instruction_estimate(self):
        assert self.make().instructions == 60

    def test_intensity_bounds(self):
        with pytest.raises(TraceError):
            Trace(name="x", accesses=[], memory_intensity=1.5)

    def test_iteration(self):
        assert len(list(self.make())) == 3


IMAGE_A = bytes(range(32))
IMAGE_B = bytes(range(32, 64))


class TestColumns:
    """The column form and the records built from it."""

    def make(self):
        return Trace(name="t", accesses=[
            TraceAccess(0x0, 0b0101, False, [(2, IMAGE_A), (0, IMAGE_B)]),
            TraceAccess(0x80, 0b0001, True),
            TraceAccess(0x100, 0b1110, True, [(3, IMAGE_A)]),
        ])

    def test_records_become_columns(self):
        trace = self.make()
        assert trace.line_addrs.tolist() == [0x0, 0x80, 0x100]
        assert trace.sector_masks.tolist() == [0b0101, 0b0001, 0b1110]
        assert trace.writes.tolist() == [False, True, True]
        # One row per selected sector: 2 + 1 + 3.
        assert trace.first_rows.tolist() == [0, 2, 3]
        assert trace.images.shape == (6, 8)
        assert trace.images.dtype == np.dtype("<u4")
        assert trace.present.tolist() == [True, True, False,
                                          False, False, True]
        assert trace.images[0].tobytes() == IMAGE_B  # slot 0 first
        assert trace.images[1].tobytes() == IMAGE_A
        assert trace.images[5].tobytes() == IMAGE_A
        assert not trace.images[2:5].any()

    def test_records_read_back_in_slot_order(self):
        first, second, third = self.make()
        assert first.values == ((0, IMAGE_B), (2, IMAGE_A))
        assert second.values is None
        assert third.values == ((3, IMAGE_A),)
        assert (third.line_addr, third.sector_mask, third.write) == (
            0x100, 0b1110, True)

    def test_records_without_values_make_no_matrix(self):
        trace = Trace(name="t", accesses=[TraceAccess(0x0, 0b0011, True)])
        assert trace.images is None and trace.present is None
        assert [a.values for a in trace] == [None]

    def test_from_columns_defaults_every_row_present(self):
        images = np.arange(24, dtype="<u4").reshape(3, 8)
        trace = Trace.from_columns(
            "c", np.array([0, 128], dtype=np.int64),
            np.array([0b0001, 0b1010], dtype=np.uint8),
            np.array([True, False]), images,
        )
        assert trace.present.tolist() == [True, True, True]
        assert trace.instructions == 40
        assert [a.values for a in trace] == [
            ((0, images[0].tobytes()),),
            ((1, images[1].tobytes()), (3, images[2].tobytes())),
        ]

    def test_from_columns_needs_a_row_per_selected_sector(self):
        columns = (np.array([0], dtype=np.int64),
                   np.array([0b0011], dtype=np.uint8), np.array([False]))
        with pytest.raises(TraceError):
            Trace.from_columns("c", *columns, np.zeros((1, 8), dtype="<u4"))
        with pytest.raises(TraceError):
            Trace.from_columns("c", *columns, np.zeros((2, 8), dtype="<u4"),
                               np.ones(3, dtype=bool))

    def test_from_columns_rejects_columns_of_different_lengths(self):
        with pytest.raises(TraceError, match="differ in length"):
            Trace.from_columns(
                "c", np.array([0, 128], dtype=np.int64),
                np.array([0b0011], dtype=np.uint8), np.array([False]),
            )

    def test_counts_read_the_columns(self):
        trace = self.make()
        assert (trace.read_accesses, trace.write_accesses) == (1, 2)
        assert trace.touched_lines == 3
        assert trace.sector_count == 6
        assert len(trace) == 3

    def test_address_beyond_the_int64_column_rejected(self):
        with pytest.raises(TraceError):
            TraceAccess(1 << 70, 0b0001, False)


def test_hot_readers_build_no_records(monkeypatch):
    """Generation, the L2 pass, the study and the statistics read the
    columns: none of them constructs a ``TraceAccess``."""
    from repro.gpu.config import VOLTA
    from repro.gpu.simulator import simulate_l2
    from repro.workloads.benchmarks import build_trace
    from repro.workloads.stats import characterize
    from repro.workloads.values import study_trace_values

    def refuse(self, *args, **kwargs):
        raise AssertionError("a TraceAccess was constructed")

    monkeypatch.setattr(TraceAccess, "__init__", refuse)
    for with_values in (True, False):
        trace = build_trace("bfs", length=500, with_values=with_values)
        log = simulate_l2(trace, VOLTA)
        assert log.fill_sectors > 0
        study_trace_values(trace)
        assert characterize(trace).accesses == 500
    with pytest.raises(AssertionError, match="TraceAccess"):
        next(iter(trace))
