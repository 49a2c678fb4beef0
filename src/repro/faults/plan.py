"""Fault classes and injection plans.

An :class:`InjectionPlan` is the complete, serializable description of
one adversarial tamper: *what* (the :class:`FaultKind`), *where* (the
target data address, plus kind-specific coordinates such as the bit to
flip, the splice source, or the tree level), and *when* (the workload
op index after which the fault is mounted). Campaigns generate plans
from a seed, so every run — and every failure — replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from repro.common.errors import FaultInjectionError

SECTOR_BYTES = 32

#: The secure-memory variants a campaign attacks. ``"functional"`` is
#: AES-XTS with an unconditional MAC (no value cache) — the reference
#: where every covered fault must be detected outright. ``"recoverable"``
#: is the crash-recoverable engine (same volatile surfaces as
#: ``"functional"``, plus a persistent image the crash campaigns kill).
ENGINE_VARIANTS: Tuple[str, ...] = ("plutus", "pssm", "functional",
                                    "recoverable")


class FaultKind(Enum):
    """The attack classes of the paper's threat model (and then some)."""

    #: Spoofing: flip one ciphertext bit in untrusted DRAM.
    BITFLIP = "bitflip"
    #: Splicing: move valid (ciphertext, MAC) state between addresses.
    SPLICE = "splice"
    #: Replay: roll data *and* metadata back to a captured snapshot.
    REPLAY = "replay"
    #: Corrupt the stored split/compact counter blob of a group.
    COUNTER_CORRUPT = "counter_corrupt"
    #: Corrupt a stored MAC tag in the untrusted MAC region.
    MAC_CORRUPT = "mac_corrupt"
    #: Corrupt a stored integrity-tree node at a chosen depth.
    BMT_NODE = "bmt_node"
    #: Suppress a DRAM store (data or MAC stream) on the write path.
    DROPPED_WRITE = "dropped_write"


#: Kinds whose silent acceptance is *quantified* (value-cache false
#: accepts) rather than strictly forbidden: the tampered/garbage
#: plaintext may legitimately pass value verification with probability
#: that must stay under the MAC collision-rate bound.
QUANTIFIED_KINDS = frozenset(
    {FaultKind.BITFLIP, FaultKind.SPLICE, FaultKind.DROPPED_WRITE}
)

#: Kinds where returning the *correct original data* is acceptable:
#: MAC-region tampering with untouched ciphertext can be bypassed by a
#: legitimate value verification of genuine plaintext (data integrity
#: holds even though the MAC region lies).
BENIGN_OK_KINDS = frozenset({FaultKind.MAC_CORRUPT, FaultKind.DROPPED_WRITE})


@dataclass(frozen=True)
class InjectionPlan:
    """One fully specified adversarial tamper.

    ``trigger_index`` positions the fault in the workload: the campaign
    replays the op stream up to (and including) op ``trigger_index - 1``
    honestly, mounts the fault, then probes the target address with one
    read. Temporal kinds (:data:`FaultKind.REPLAY`,
    :data:`FaultKind.DROPPED_WRITE`) additionally perform their own
    advancing write at the trigger point — see
    :mod:`repro.faults.hooks`.
    """

    kind: FaultKind
    #: Sector-aligned data address the fault targets (and the probe reads).
    address: int
    #: Workload op count replayed before the fault is mounted.
    trigger_index: int
    #: BITFLIP: bit within the 256-bit sector. COUNTER_CORRUPT /
    #: MAC_CORRUPT: bit within the blob/tag (taken modulo its width).
    bit: int = 0
    #: SPLICE: the (written) source address whose state is copied in.
    src_address: Optional[int] = None
    #: BMT_NODE: stored-tree level of the corrupted sibling node
    #: (0 = leaf hashes; the root level itself is on-chip and trusted).
    tree_level: int = 0
    #: DROPPED_WRITE: which store is suppressed — ``"data"`` or ``"mac"``.
    stream: str = "data"

    def __post_init__(self) -> None:
        if self.address % SECTOR_BYTES != 0 or self.address < 0:
            raise FaultInjectionError(
                f"target address {self.address:#x} is not sector aligned"
            )
        if self.trigger_index < 0:
            raise FaultInjectionError("trigger index cannot be negative")
        if self.bit < 0:
            raise FaultInjectionError("bit index cannot be negative")
        if self.kind is FaultKind.BITFLIP and self.bit >= SECTOR_BYTES * 8:
            raise FaultInjectionError(
                f"bitflip bit {self.bit} outside a {SECTOR_BYTES}-byte sector"
            )
        if self.kind is FaultKind.SPLICE:
            if self.src_address is None:
                raise FaultInjectionError("splice plan needs src_address")
            if (
                self.src_address % SECTOR_BYTES != 0
                or self.src_address == self.address
            ):
                raise FaultInjectionError(
                    "splice source must be a different, aligned sector"
                )
        if self.kind is FaultKind.DROPPED_WRITE and self.stream not in (
            "data",
            "mac",
        ):
            raise FaultInjectionError(
                f"dropped-write stream must be 'data' or 'mac', "
                f"got {self.stream!r}"
            )
        if self.tree_level < 0:
            raise FaultInjectionError("tree level cannot be negative")

    def describe(self) -> str:
        """One-line human description for reports."""
        extra = ""
        if self.kind is FaultKind.BITFLIP:
            extra = f" bit {self.bit}"
        elif self.kind is FaultKind.SPLICE:
            extra = f" from {self.src_address:#x}"
        elif self.kind is FaultKind.BMT_NODE:
            extra = f" level {self.tree_level}"
        elif self.kind is FaultKind.DROPPED_WRITE:
            extra = f" ({self.stream} stream)"
        elif self.kind in (FaultKind.COUNTER_CORRUPT, FaultKind.MAC_CORRUPT):
            extra = f" bit {self.bit}"
        return (
            f"{self.kind.value} @ {self.address:#x}{extra} "
            f"after op {self.trigger_index}"
        )
