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
    def key_mask(self) -> int:
        """AND mask turning a raw value into its probe key: the value's
        ``value_bits`` with the ``mask_bits`` LSBs cleared."""
        return ((1 << self.value_bits) - 1) & ~((1 << self.mask_bits) - 1)

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
        # The config's derived limits, read once per run. The per-value
        # probe/observe keep reading the config: they are the reference
        # the run methods are tested against.
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
        """Record every value of a sector, in order (see :meth:`observe`)."""
        for value in values:
            self.observe(value)

    def verify_sector(self, values: Sequence[int]) -> bool:
        """Value-verify a 32-byte sector (two 128-bit units).

        A unit passes when at least ``hits_required`` of its values hit;
        every unit must pass independently — a tampered ciphertext block
        randomizes exactly one 16-byte unit, so a single passing unit
        says nothing about its neighbour (paper: "both halves need to
        satisfy this"). Every value of a unit is probed, and the first
        unit that falls short ends the sector unprobed.
        """
        cfg = self.config
        per_unit = cfg.values_per_unit
        if len(values) % per_unit != 0:
            raise ValueError("sector values must fill whole units")
        self.stats.sectors_checked += 1
        for start in range(0, len(values), per_unit):
            hits = 0
            for value in values[start:start + per_unit]:
                hits += self.probe(value)[0]
            if hits < cfg.hits_required:
                self.stats.sectors_failed += 1
                return False
        self.stats.sectors_verified += 1
        return True

    def write_verifiable(self, values: Sequence[int]) -> bool:
        """Will this written sector pass value verification at next read?

        Guaranteed only when every unit passes using *pinned* hits —
        pinned entries cannot be evicted, so they will still be resident
        when the sector returns from memory (paper Fig. 11, right).
        Lookups here do not touch stats or LRU state: this is the write
        path's side-band check.
        """
        cfg = self.config
        per_unit = cfg.values_per_unit
        if len(values) % per_unit != 0:
            raise ValueError("sector values must fill whole units")
        pinned = self._pinned
        return all(
            sum(self._key(v) in pinned for v in values[start:start + per_unit])
            >= cfg.hits_required
            for start in range(0, len(values), per_unit)
        )

    def pinned_values(self) -> List[int]:
        """Masked values currently pinned (diagnostics/tests)."""
        return list(self._pinned)

    # -- whole runs of sectors, by key ----------------------------------------
    #
    # Engines derive the masked probe keys for a whole run with one
    # numpy pass (see :meth:`mask_keys`) and hand the run to one of
    # these methods. Each walks its sectors in order with the same
    # state changes as the per-value methods above.

    def mask_keys(self, values: Iterable[int]) -> List[int]:
        """Masked probe keys for raw 32-bit values (order preserved)."""
        return [self._key(v) for v in values]

    def _check_units(self, keys_list) -> None:
        """Reject a run before it changes any state: every row must fill
        whole units and fit the transient region (see :meth:`fill_run`)."""
        per_unit = self.config.values_per_unit
        cap = self._transient_capacity
        for length in {len(keys) for keys in keys_list if keys is not None}:
            if length % per_unit:
                raise ValueError("sector values must fill whole units")
            if length > cap:
                raise ValueError(
                    f"a sector of {length} values does not fit the "
                    f"transient region of {cap} entries"
                )

    def fill_run(self, keys_list) -> Tuple[List[int], int, int]:
        """Value-check a run of fills: verify, then observe, each sector.

        ``keys_list`` holds each event's masked keys, or ``None`` for an
        event without an image. A sector verifies as
        :meth:`verify_sector`, and every key is then observed as
        :meth:`observe_many`. Returns ``(mac_rows, verified, failed)``:
        the indices of the events whose MAC must be fetched (no image,
        or a failed check), and the verified and failed sector counts.

        One visit per key: the probed prefix of a sector is probed and
        observed together. A key the prefix inserts probes as a miss
        again if it repeats within the prefix, the transient region is
        trimmed to capacity once when the prefix ends, and the unprobed
        tail of a failed sector is then observed key by key. That equals
        probing the whole prefix before observing anything as long as a
        sector's keys fit the transient region (the trim then evicts
        only keys the sector never touched), which :meth:`_check_units`
        requires of every row.
        """
        self._check_units(keys_list)
        cfg = self.config
        per_unit = cfg.values_per_unit
        need = cfg.hits_required
        pin_at = cfg.pin_threshold
        pin_cap = self._pinned_capacity
        freq_cap = self._freq_cap
        cap = self._transient_capacity
        pinned = self._pinned
        transient = self._transient
        lookup = transient.get
        move = transient.move_to_end
        unpin = transient.pop
        evict = transient.popitem
        mac_rows: List[int] = []
        append = mac_rows.append
        probes = hits = pinned_hits = promotions = verified = failed = 0
        for i, keys in enumerate(keys_list):
            if keys is None:
                append(i)
                continue
            fresh = []  # keys this sector inserted
            unit_start = hits
            unit_end = per_unit
            passed = True
            n = 0
            for n, key in enumerate(keys, 1):
                if key in pinned:
                    hits += 1
                    pinned_hits += 1
                else:
                    freq = lookup(key)
                    if freq is None:
                        transient[key] = 1
                        fresh.append(key)
                    elif key in fresh:
                        move(key)  # inserted earlier in this prefix
                    else:
                        hits += 1
                        if freq < freq_cap:
                            freq += 1
                        transient[key] = freq
                        move(key)
                        if freq >= pin_at and len(pinned) < pin_cap:
                            pinned[key] = unpin(key)
                            promotions += 1
                if n == unit_end:
                    if hits - unit_start < need:
                        passed = False  # the remaining units go unprobed
                        break
                    unit_start = hits
                    unit_end += per_unit
            probes += n
            while len(transient) > cap:
                evict(False)
            if passed:
                verified += 1
                continue
            failed += 1
            append(i)
            for key in keys[n:]:
                if key in pinned:
                    continue
                if key in transient:
                    move(key)
                    continue
                if len(transient) >= cap:
                    evict(False)
                transient[key] = 1
        stats = self.stats
        stats.probes += probes
        stats.hits += hits
        stats.pinned_hits += pinned_hits
        stats.promotions += promotions
        stats.sectors_checked += verified + failed
        stats.sectors_verified += verified
        stats.sectors_failed += failed
        return mac_rows, verified, failed

    def writeback_run(self, keys_list) -> Tuple[List[int], int]:
        """Train on a run of writebacks: observe, then check, each sector.

        Every key is observed as :meth:`observe_many`, and the sector is
        then checked as :meth:`write_verifiable`. Observing never
        changes the pinned set, so each unit's pinned keys are counted
        in the same visit. Returns ``(mac_rows, avoided)``: the indices
        of the events whose MAC must be written (no image, or not
        verifiable from pinned values), and the number of MAC writes
        avoided.
        """
        self._check_units(keys_list)
        cfg = self.config
        per_unit = cfg.values_per_unit
        need = cfg.hits_required
        cap = self._transient_capacity
        pinned = self._pinned
        transient = self._transient
        move = transient.move_to_end
        evict = transient.popitem
        mac_rows: List[int] = []
        append = mac_rows.append
        avoided = 0
        for i, keys in enumerate(keys_list):
            if keys is None:
                append(i)
                continue
            passed = True
            unit_pinned = 0
            unit_end = per_unit
            for n, key in enumerate(keys, 1):
                if key in pinned:
                    unit_pinned += 1
                elif key in transient:
                    move(key)
                else:
                    if len(transient) >= cap:
                        evict(False)
                    transient[key] = 1
                if n == unit_end:
                    if unit_pinned < need:
                        passed = False
                    unit_pinned = 0
                    unit_end += per_unit
            if passed:
                avoided += 1
            else:
                append(i)
        return mac_rows, avoided

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
