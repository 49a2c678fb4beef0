"""Defensive-input tests: engines must reject out-of-range requests."""

import pytest

from repro.mem.traffic import TrafficCounter
from repro.secure.plutus import PlutusEngine
from repro.secure.pssm import PssmEngine

SECTORS = 1 << 12


@pytest.fixture(params=[PssmEngine, PlutusEngine])
def engine(request):
    return request.param(0, SECTORS, TrafficCounter())


class TestOutOfRange:
    def test_fill_beyond_partition_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.on_fill_batch([SECTORS], [None])

    def test_writeback_beyond_partition_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.on_writeback_batch([SECTORS + 100], [None])

    def test_last_valid_sector_accepted(self, engine):
        engine.on_fill_batch([SECTORS - 1], [None])
        engine.on_writeback_batch([SECTORS - 1], [None])
        engine.finalize()

    def test_negative_sector_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.on_fill_batch([-1], [None])


class TestMalformedValues:
    def test_short_value_image_rejected(self, engine):
        if isinstance(engine, PlutusEngine):
            with pytest.raises(ValueError):
                engine.on_fill_batch([0], [b"\x00" * 16])  # not a whole sector
        else:
            engine.on_fill_batch([0], [b"\x00" * 16])  # PSSM ignores values
