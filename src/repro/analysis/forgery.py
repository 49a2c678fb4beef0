"""Forgery-probability analysis of value-based verification (Eq. 1).

The paper's security argument: a tampered AES-XTS cipher block decrypts
to a uniformly random 128-bit unit, so each of its four 32-bit values
hits a K-entry cache of M-bit-effective values with probability
p = K / 2^M. Requiring x of the n = 4 values to hit bounds the forgery
success probability by the binomial tail

    P(x) = sum_{i=x..n} C(n, i) p^i (1-p)^(n-i)

which must stay below the acceptable forgery bound — Gueron's 2^-56,
relaxed in the paper's Eq. 1 presentation to "less than the collision
rate of the deployed MAC". With K = 256 entries and 28 effective bits,
x = 3 satisfies the bound; this module reproduces that derivation and
exposes the general solver used by the Eq. 1 bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional


def single_hit_probability(cache_entries: int, effective_bits: int) -> float:
    """p = K / 2^M: chance one uniform M-bit value hits a K-entry cache."""
    if cache_entries <= 0:
        raise ValueError("cache must have entries")
    if effective_bits <= 0:
        raise ValueError("effective bits must be positive")
    return min(1.0, cache_entries / float(2**effective_bits))


def binomial_tail(n: int, x: int, p: float) -> float:
    """P(at least x successes out of n trials at probability p)."""
    if not 0 <= x <= n:
        raise ValueError("x must lie in [0, n]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    return sum(comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(x, n + 1))


def forgery_probability(
    cache_entries: int = 256,
    effective_bits: int = 28,
    values_per_unit: int = 4,
    hits_required: int = 3,
    units_per_access: int = 2,
) -> float:
    """Probability a tampered access passes the full value check.

    Every 128-bit unit of the access must independently pass, so the
    per-unit tail is raised to the number of units (two per 32-byte
    sector in the paper's configuration).
    """
    p = single_hit_probability(cache_entries, effective_bits)
    per_unit = binomial_tail(values_per_unit, hits_required, p)
    return per_unit**units_per_access


def minimum_hits_required(
    cache_entries: int = 256,
    effective_bits: int = 28,
    values_per_unit: int = 4,
    bound: float = 2.0**-56,
    units_per_access: int = 1,
) -> Optional[int]:
    """Smallest x whose forgery probability meets *bound* (Eq. 1 solve).

    Returns ``None`` when even requiring every value to hit is not
    enough (cache too large for the value space).
    """
    for x in range(1, values_per_unit + 1):
        prob = forgery_probability(
            cache_entries, effective_bits, values_per_unit, x, units_per_access
        )
        if prob < bound:
            return x
    return None


@dataclass(frozen=True)
class ForgeryAnalysis:
    """One row of the Eq. 1 design-space table."""

    cache_entries: int
    effective_bits: int
    hits_required: int
    per_unit_probability: float
    per_sector_probability: float
    mac_collision_8B: float = 2.0**-64

    @property
    def beats_8B_mac(self) -> bool:
        return self.per_sector_probability < self.mac_collision_8B


def design_space(
    entry_options: "List[int]" = (64, 128, 256, 512, 1024),
    effective_bits: int = 28,
    values_per_unit: int = 4,
) -> List[ForgeryAnalysis]:
    """Tabulate minimum-x and resulting probabilities per cache size."""
    rows: List[ForgeryAnalysis] = []
    for entries in entry_options:
        x = minimum_hits_required(
            entries, effective_bits, values_per_unit, bound=2.0**-56
        )
        hits = x if x is not None else values_per_unit
        unit_p = forgery_probability(
            entries, effective_bits, values_per_unit, hits, units_per_access=1
        )
        rows.append(
            ForgeryAnalysis(
                cache_entries=entries,
                effective_bits=effective_bits,
                hits_required=hits,
                per_unit_probability=unit_p,
                per_sector_probability=unit_p**2,
            )
        )
    return rows
