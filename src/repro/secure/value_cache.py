"""The Plutus value cache (paper Section IV-C).

A small, fully-associative, per-partition store of recently seen 32-bit
values. Incoming plaintext is carved into 32-bit values whose upper 28
bits (the 4 LSBs are masked to catch near values) probe the cache; a
16-byte AES-XTS cipher-block unit counts as verified when at least
``hits_required`` of its four values hit, and a 32-byte sector is
verified when both of its units are. Verified sectors skip the MAC fetch
altogether.

Entries split into a *transient* region (LRU-replaced) and a *pinned*
region (25% of capacity, never replaced once pinned). A 4-bit frequency
counter per entry promotes hot transient values into the pinned region;
pinned hits are what make a *write* provably verifiable at its next read
(pinned values are guaranteed to still be resident).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.common.bitops import mask_low_bits
from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ValueCacheConfig:
    """Tunables of the value cache (paper defaults in Table II)."""

    entries: int = 256
    value_bits: int = 32
    mask_bits: int = 4
    freq_bits: int = 4
    pinned_fraction: float = 0.25
    #: Minimum value-cache hits per 128-bit unit for verification (the
    #: solution of Eq. 1 with K=256, M=28: x = 3 of n = 4).
    hits_required: int = 3
    values_per_unit: int = 4
    #: Frequency count at which a transient entry is pinned.
    pin_threshold: int = 15

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigurationError("value cache needs entries")
        if not 0 <= self.pinned_fraction < 1:
            raise ConfigurationError("pinned fraction must be in [0, 1)")
        if not 0 < self.hits_required <= self.values_per_unit:
            raise ConfigurationError("hits_required outside unit size")
        if self.pin_threshold > (1 << self.freq_bits) - 1:
            # The frequency counter saturates at 2**freq_bits - 1, so a
            # higher threshold could never pin anything.
            raise ConfigurationError("pin threshold exceeds frequency counter")

    @property
    def pinned_capacity(self) -> int:
        return int(self.entries * self.pinned_fraction)

    @property
    def transient_capacity(self) -> int:
        return self.entries - self.pinned_capacity

    @property
    def effective_value_bits(self) -> int:
        """Bits that participate in matching (28 for the paper's config)."""
        return self.value_bits - self.mask_bits

    @property
    def storage_bytes(self) -> int:
        """On-chip cost: value bits + frequency counter per entry."""
        bits = self.entries * (self.value_bits + self.freq_bits)
        return (bits + 7) // 8


@dataclass
class ValueCacheStats:
    """Probe/verification statistics for one value cache."""

    probes: int = 0
    hits: int = 0
    pinned_hits: int = 0
    sectors_checked: int = 0
    sectors_verified: int = 0
    sectors_failed: int = 0
    promotions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    @property
    def sector_verify_rate(self) -> float:
        return (
            self.sectors_verified / self.sectors_checked
            if self.sectors_checked
            else 0.0
        )


class ValueCache:
    """Fully-associative value store with pinned and transient regions."""

    def __init__(self, config: ValueCacheConfig = ValueCacheConfig()) -> None:
        self.config = config
        self.stats = ValueCacheStats()
        #: Transient region: masked value -> frequency, in LRU order.
        self._transient: "OrderedDict[int, int]" = OrderedDict()
        #: Pinned region: masked value -> frequency (never evicted).
        self._pinned: Dict[int, int] = {}
        # The config's derived limits, read on every key probe. The
        # per-value probe/observe keep reading the config: they are the
        # reference the key methods are tested against.
        self._pinned_capacity = config.pinned_capacity
        self._transient_capacity = config.transient_capacity
        self._freq_cap = (1 << config.freq_bits) - 1

    def _key(self, value: int) -> int:
        return mask_low_bits(value & ((1 << self.config.value_bits) - 1),
                             self.config.mask_bits)

    def __len__(self) -> int:
        return len(self._transient) + len(self._pinned)

    def probe(self, value: int) -> Tuple[bool, bool]:
        """Look up one value; returns (hit, hit_was_pinned).

        A hit refreshes LRU position and bumps the frequency counter
        (saturating), possibly promoting the entry into the pinned
        region when there is pinned capacity left.
        """
        key = self._key(value)
        self.stats.probes += 1
        if key in self._pinned:
            self.stats.hits += 1
            self.stats.pinned_hits += 1
            return True, True
        if key in self._transient:
            self.stats.hits += 1
            freq = min(self._transient[key] + 1, (1 << self.config.freq_bits) - 1)
            self._transient[key] = freq
            self._transient.move_to_end(key)
            if (
                freq >= self.config.pin_threshold
                and len(self._pinned) < self.config.pinned_capacity
            ):
                self._pinned[key] = self._transient.pop(key)
                self.stats.promotions += 1
            return True, False
        return False, False

    def observe(self, value: int) -> None:
        """Record a value seen on a read or write (insert if absent)."""
        key = self._key(value)
        if key in self._pinned:
            return
        if key in self._transient:
            self._transient.move_to_end(key)
            return
        if len(self._transient) >= self.config.transient_capacity:
            self._transient.popitem(last=False)
        self._transient[key] = 1

    def observe_many(self, values: Iterable[int]) -> None:
        """Record every value of a sector (insertion order preserved)."""
        self.observe_keys(self.mask_keys(values))

    def verify_sector(self, values: Sequence[int]) -> bool:
        """Value-verify a 32-byte sector (see :meth:`verify_keys`)."""
        return self.verify_keys(self.mask_keys(values))

    def write_verifiable(self, values: Sequence[int]) -> bool:
        """Will this written sector pass value verification at next read?

        See :meth:`write_verifiable_keys`.
        """
        return self.write_verifiable_keys(self.mask_keys(values))

    def pinned_values(self) -> List[int]:
        """Masked values currently pinned (diagnostics/tests)."""
        return list(self._pinned)

    # -- the key-based implementation ----------------------------------------
    #
    # Engines derive the masked probe keys for a whole run with one
    # numpy pass (see :meth:`mask_keys`) and drive the cache through
    # these methods; the value-based ones above mask and delegate.

    def mask_keys(self, values: Iterable[int]) -> List[int]:
        """Masked probe keys for raw 32-bit values (order preserved)."""
        return [self._key(v) for v in values]

    def verify_keys(self, keys: Sequence[int]) -> bool:
        """Value-verify a 32-byte sector (two 128-bit units) by its keys.

        A unit passes when at least ``hits_required`` of its values hit;
        every unit must pass independently — a tampered ciphertext block
        randomizes exactly one 16-byte unit, so a single passing unit
        says nothing about its neighbour (paper: "both halves need to
        satisfy this"). Each probe refreshes LRU position and bumps the
        hit entry's frequency counter, as :meth:`probe` does.
        """
        per_unit = self.config.values_per_unit
        if len(keys) % per_unit != 0:
            raise ValueError("sector values must fill whole units")
        stats = self.stats
        pinned = self._pinned
        transient = self._transient
        freq_cap = self._freq_cap
        pin_at = self.config.pin_threshold
        pin_cap = self._pinned_capacity
        need = self.config.hits_required
        probes = hits = pinned_hits = promotions = unit_start = 0
        unit_end = per_unit
        passed = True
        stats.sectors_checked += 1
        for probes, key in enumerate(keys, 1):
            if key in pinned:
                hits += 1
                pinned_hits += 1
            else:
                freq = transient.get(key)
                if freq is not None:
                    hits += 1
                    freq = freq + 1 if freq < freq_cap else freq_cap
                    transient[key] = freq
                    transient.move_to_end(key)
                    if freq >= pin_at and len(pinned) < pin_cap:
                        pinned[key] = transient.pop(key)
                        promotions += 1
            if probes == unit_end:
                if hits - unit_start < need:
                    passed = False
                    break  # the remaining units are not probed
                unit_start = hits
                unit_end += per_unit
        stats.probes += probes
        stats.hits += hits
        stats.pinned_hits += pinned_hits
        stats.promotions += promotions
        if passed:
            stats.sectors_verified += 1
        else:
            stats.sectors_failed += 1
        return passed

    def observe_keys(self, keys: Iterable[int]) -> None:
        """Record every key of a sector (see :meth:`observe`)."""
        pinned = self._pinned
        transient = self._transient
        cap = self._transient_capacity
        for key in keys:
            if key in pinned:
                continue
            if key in transient:
                transient.move_to_end(key)
                continue
            if len(transient) >= cap:
                transient.popitem(last=False)
            transient[key] = 1

    def write_verifiable_keys(self, keys: Sequence[int]) -> bool:
        """Will the sector with these keys value-verify at its next read?

        Guaranteed only when every unit passes using *pinned* hits —
        pinned entries cannot be evicted, so they will still be resident
        when the sector returns from memory (paper Fig. 11, right).
        Probes here do not touch stats or LRU state: this is the write
        path's side-band check.
        """
        cfg = self.config
        per_unit = cfg.values_per_unit
        if len(keys) % per_unit != 0:
            raise ValueError("sector values must fill whole units")
        pinned = self._pinned
        need = cfg.hits_required
        for start in range(0, len(keys), per_unit):
            hits = 0
            for key in keys[start:start + per_unit]:
                if key in pinned:
                    hits += 1
            if hits < need:
                return False
        return True

    def state_summary(self):
        """Canonical full-state value for differential comparison.

        Transient entries keep their LRU (insertion) order — it decides
        future evictions — while the pinned dict is sorted: pinned
        entries are never evicted or ordered, so key insertion order
        carries no semantics there.
        """
        st = self.stats
        return (
            list(self._transient.items()),
            sorted(self._pinned.items()),
            (st.probes, st.hits, st.pinned_hits, st.sectors_checked,
             st.sectors_verified, st.sectors_failed, st.promotions),
        )
