"""Tests for the Monte-Carlo forgery experiment."""

import pytest

from repro.analysis.empirical import run_forgery_experiment
from repro.secure.value_cache import ValueCacheConfig


class TestForgeryExperiment:
    def test_no_sector_ever_passes(self):
        """The analytical bound is ~1e-35 per sector; any pass in a few
        hundred trials would falsify the model catastrophically."""
        experiment = run_forgery_experiment(trials=300, seed=1)
        assert experiment.sector_passes == 0
        assert experiment.unit_passes == 0

    def test_value_hit_rate_matches_k_over_2m(self):
        """Individual tampered values hit at ~K/2^M = 9.5e-7 — far too
        rare to observe at small scale, so the measured rate must be
        statistically consistent with (i.e. not above) a generous
        multiple of the expectation."""
        experiment = run_forgery_experiment(trials=400, seed=2)
        # 1600 tampered values x 9.5e-7 expected hits ~ 0.0015: observing
        # 2+ hits would be a >1000-sigma violation.
        assert experiment.value_hits <= 1
        assert experiment.expected_value_hit_rate == pytest.approx(
            256 / 2.0**28
        )

    def test_experiment_is_deterministic(self):
        a = run_forgery_experiment(trials=50, seed=3)
        b = run_forgery_experiment(trials=50, seed=3)
        assert a == b

    @pytest.mark.parametrize("pinned_fraction", [0.0, 0.25])
    def test_small_value_space_does_get_forged(self, pinned_fraction):
        """Sanity check that the harness can detect passes at all: with
        only 8 effective bits the 256 resident values cover the whole
        value space, so every tampered unit and sector passes. How the
        cache splits into pinned and transient regions does not change
        how many values Eq. 1 counts as resident."""
        config = ValueCacheConfig(
            entries=256, mask_bits=24, pinned_fraction=pinned_fraction
        )  # 8 effective bits -> p = min(1, 256/2^8) = 1
        experiment = run_forgery_experiment(trials=100, seed=4,
                                            cache_config=config)
        assert experiment.unit_passes == experiment.sector_passes == 100
