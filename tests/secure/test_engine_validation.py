"""Defensive-input tests: engines must reject out-of-range requests."""

import pytest

from repro.common.errors import ConfigurationError
from repro.mem.traffic import TrafficCounter
from repro.secure.engine import MetadataCacheConfig
from repro.secure.plutus import PlutusEngine, PlutusValueMacSide
from repro.secure.pssm import PssmEngine
from repro.secure.value_cache import ValueCacheConfig

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


class TestValueCacheSize:
    """The value cache's run methods need one sector's eight values to
    fit the transient region, so an engine refuses a smaller cache when
    it is built, before any run."""

    def build(self, engine_class, config):
        if engine_class is PlutusValueMacSide:
            return PlutusValueMacSide(0, SECTORS, TrafficCounter(), 8,
                                      MetadataCacheConfig(), config)
        return PlutusEngine(0, SECTORS, TrafficCounter(),
                            value_cache_config=config)

    @pytest.mark.parametrize("engine_class",
                             [PlutusEngine, PlutusValueMacSide])
    def test_cache_smaller_than_a_sector_refused(self, engine_class):
        # 8 entries, half pinned: 4 transient entries.
        small = ValueCacheConfig(entries=8, pinned_fraction=0.5)
        with pytest.raises(ConfigurationError):
            self.build(engine_class, small)

    @pytest.mark.parametrize("engine_class",
                             [PlutusEngine, PlutusValueMacSide])
    def test_cache_holding_one_sector_accepted(self, engine_class):
        exact = ValueCacheConfig(entries=16, pinned_fraction=0.5)
        engine = self.build(engine_class, exact)
        engine.on_fill_batch([0], [bytes(range(32))])
        assert engine.stats.value_check_failures == 1
