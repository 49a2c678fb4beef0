"""Empirical (Monte-Carlo) validation of the value-check security bound.

Eq. 1 is an analytical bound; this module attacks it experimentally
with the *real* cipher: encrypt honest sectors with AES-XTS, flip
random ciphertext bits, decrypt, and count how often the tampered
plaintext passes the value check against a fully stocked value cache.
The analytical bound (~1e-35 per sector) predicts zero passes at any
feasible trial count; the experiment also measures how many individual
32-bit values survive, whose expectation *is* measurable and
cross-checks the K/2^M model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import mask_low_bits, split_values
from repro.common.rng import RngStream
from repro.crypto.xts import AesXts
from repro.secure.value_cache import ValueCacheConfig


@dataclass(frozen=True)
class ForgeryExperiment:
    """Outcome of one Monte-Carlo tamper campaign."""

    trials: int
    sector_passes: int
    unit_passes: int
    value_hits: int
    total_values: int
    expected_value_hit_rate: float

    @property
    def sector_pass_rate(self) -> float:
        return self.sector_passes / self.trials if self.trials else 0.0


def run_forgery_experiment(
    trials: int = 2000,
    seed: int = 7,
    cache_config: ValueCacheConfig = ValueCacheConfig(),
) -> ForgeryExperiment:
    """Tamper *trials* random sectors and score the value check.

    The value cache is modelled as Eq. 1 does: ``entries`` known-hot
    values, all resident. Every honest sector is built entirely from
    those values (so it would pass), then one random ciphertext bit is
    flipped before decryption.
    """
    rng = RngStream(seed, "forgery")
    xts = AesXts(bytes(rng.bytes(32)))
    mask_bits, need = cache_config.mask_bits, cache_config.hits_required

    # Values that stay distinct after low-bit masking (a stride of one
    # masked-granularity unit), so they are their own masked keys.
    hot = [v << mask_bits for v in range(cache_config.entries)]
    resident = frozenset(hot)

    sector_passes = 0
    unit_passes = 0
    value_hits = 0
    total_values = 0
    hot_choices = rng.child("choices")
    flips = rng.child("flips")

    for trial in range(trials):
        picks = hot_choices.integers(0, len(hot), size=8)
        plaintext = b"".join(hot[int(p)].to_bytes(4, "little") for p in picks)
        tweak = (trial + 1).to_bytes(16, "little")
        ciphertext = bytearray(xts.encrypt(plaintext, tweak))
        bit = int(flips.integers(0, 256))
        ciphertext[bit // 8] ^= 1 << (bit % 8)
        recovered = xts.decrypt(bytes(ciphertext), tweak)

        keys = [mask_low_bits(v, mask_bits) for v in split_values(recovered, 4)]
        unit_hits = [sum(k in resident for k in keys[i:i + 4]) for i in (0, 4)]
        # Value statistics count only the tampered unit (bit // 128):
        # the untouched one is honest hot values and would dilute them.
        hits = unit_hits[bit // 128]
        value_hits += hits
        total_values += 4
        if hits >= need:
            unit_passes += 1
        # A forged unit forges the sector only if the other unit passes.
        if min(unit_hits) >= need:
            sector_passes += 1

    return ForgeryExperiment(
        trials=trials,
        sector_passes=sector_passes,
        unit_passes=unit_passes,
        value_hits=value_hits,
        total_values=total_values,
        expected_value_hit_rate=(
            cache_config.entries / 2.0**cache_config.effective_value_bits
        ),
    )
