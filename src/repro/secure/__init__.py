"""Secure-memory engines: PSSM baseline, common counters, Plutus, functional."""

from repro.secure.common_counters import CommonCountersEngine
from repro.secure.engine import (
    EngineStats,
    MetadataCacheConfig,
    MetadataEngine,
    NoSecurityEngine,
    PartitionEngine,
)
from repro.secure.functional import SECTOR_BYTES, ReadFlow, SecureMemory
from repro.secure.plutus import PlutusEngine
from repro.secure.pssm import PssmEngine
from repro.secure.value_cache import (
    ValueCache,
    ValueCacheConfig,
    ValueCacheStats,
)

__all__ = [
    "CommonCountersEngine",
    "EngineStats",
    "MetadataCacheConfig",
    "MetadataEngine",
    "NoSecurityEngine",
    "PartitionEngine",
    "PlutusEngine",
    "PssmEngine",
    "ReadFlow",
    "SECTOR_BYTES",
    "SecureMemory",
    "ValueCache",
    "ValueCacheConfig",
    "ValueCacheStats",
]
