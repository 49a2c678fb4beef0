"""Security metadata: counters (split/compact), BMT, MACs."""

from repro.metadata.bmt import BmtGeometry, BmtTraversal
from repro.metadata.compact import (
    DESIGN_2BIT,
    DESIGN_3BIT,
    DESIGN_3BIT_ADAPTIVE,
    CompactCounterConfig,
    CompactCounterState,
    CounterAccessPlan,
    CounterRoute,
)
from repro.metadata.layout import GranularityDesign, MetadataLayout, compact_layout
from repro.metadata.mac_store import MacStore
from repro.metadata.merkle import MerkleTree
from repro.metadata.split_counter import (
    IncrementOutcome,
    SplitCounterConfig,
    SplitCounterStore,
)

__all__ = [
    "BmtGeometry",
    "BmtTraversal",
    "CompactCounterConfig",
    "CompactCounterState",
    "CounterAccessPlan",
    "CounterRoute",
    "DESIGN_2BIT",
    "DESIGN_3BIT",
    "DESIGN_3BIT_ADAPTIVE",
    "GranularityDesign",
    "IncrementOutcome",
    "MacStore",
    "MerkleTree",
    "MetadataLayout",
    "SplitCounterConfig",
    "SplitCounterStore",
    "compact_layout",
]
