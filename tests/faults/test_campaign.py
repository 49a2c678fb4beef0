"""Campaign-level tests: the detection matrix and the quantified rates.

The headline assertion mirrors the paper's security argument: every
MAC/BMT-covered fault is *detected* with the right exception class at
the right address, and the only silent acceptances are the quantified
value-cache false accepts, whose measured rate must track the analytic
model and stay under the configured bound.
"""

import pytest

from repro.common.errors import FaultInjectionError
from repro.faults.campaign import (
    CAMPAIGNS,
    CampaignSpec,
    Outcome,
    build_plans,
    campaign_spec,
    mac_collision_rate,
    run_campaign,
    value_cache_false_accept_rate,
)
from repro.faults.plan import (
    BENIGN_OK_KINDS,
    ENGINE_VARIANTS,
    FaultKind,
)
from repro.faults.report import render_campaign
from repro.faults.workload import synthetic_ops
from repro.secure.value_cache import ValueCacheConfig

# Full fault campaigns run functional crypto end to end; keep them out
# of the `-m "not slow"` inner loop (tier-1 still runs everything).
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def quick_report():
    return run_campaign(campaign_spec("quick"))


@pytest.fixture(scope="module")
def stress_report():
    return run_campaign(campaign_spec("value-stress"))


class TestBounds:
    def test_mac_collision_rate_is_paper_bound(self):
        assert mac_collision_rate(8) == 2.0**-64
        assert mac_collision_rate(4) == 2.0**-32

    def test_analytic_rate_zero_when_cache_empty(self):
        config = ValueCacheConfig()
        assert value_cache_false_accept_rate(config, 0) == 0.0

    def test_analytic_rate_monotone_in_residency(self):
        config = ValueCacheConfig(mask_bits=24)
        rates = [
            value_cache_false_accept_rate(config, keys)
            for keys in (16, 64, 192, 256)
        ]
        assert rates == sorted(rates)
        assert rates[-1] <= 1.0


class TestSpecs:
    def test_unknown_campaign_names_the_known_ones(self):
        with pytest.raises(FaultInjectionError) as info:
            campaign_spec("nope")
        for name in CAMPAIGNS:
            assert name in str(info.value)

    def test_unknown_engine_rejected(self):
        with pytest.raises(FaultInjectionError):
            CampaignSpec(name="x", engines=("plutus", "sgx"))

    def test_unknown_workload_rejected(self):
        with pytest.raises(FaultInjectionError):
            CampaignSpec(name="x", workload="adversarial")

    def test_plans_are_seed_deterministic(self):
        spec = campaign_spec("quick")
        ops = synthetic_ops(spec.seed, spec.warmup_ops, spec.size_bytes)
        assert build_plans(spec, ops) == build_plans(spec, ops)

    def test_plans_cover_every_kind(self):
        spec = campaign_spec("quick")
        ops = synthetic_ops(spec.seed, spec.warmup_ops, spec.size_bytes)
        plans = build_plans(spec, ops)
        assert {p.kind for p in plans} == set(FaultKind)
        assert len(plans) == len(FaultKind) * spec.trials_per_kind


class TestDetectionMatrix:
    def test_quick_campaign_passes(self, quick_report):
        assert quick_report.supervision.ok
        assert quick_report.ok
        assert not quick_report.missed
        assert not quick_report.disallowed_benign
        assert not quick_report.disallowed_false_accepts

    def test_covers_all_engines_and_kinds(self, quick_report):
        engines = {e for e, _ in quick_report.matrix}
        kinds = {k for _, k in quick_report.matrix}
        assert engines == set(ENGINE_VARIANTS)
        assert kinds == set(FaultKind)

    def test_non_benign_kinds_fully_detected(self, quick_report):
        """100% detection wherever MAC/BMT coverage is unconditional."""
        for (engine, kind), cell in quick_report.matrix.items():
            if kind in BENIGN_OK_KINDS and engine == "plutus":
                # Value verification may legitimately accept genuine
                # plaintext here; BENIGN is the specified outcome.
                assert cell.missed == 0 and cell.false_accepts == 0
            else:
                assert cell.detected == cell.trials, (engine, kind)

    def test_functional_reference_detects_everything(self, quick_report):
        for record in quick_report.records:
            if record.engine == "functional":
                assert record.outcome is Outcome.DETECTED, record

    def test_render_includes_matrix_and_verdict(self, quick_report):
        text = render_campaign(quick_report)
        assert "fault class" in text
        for engine in ENGINE_VARIANTS:
            assert engine in text
        assert text.endswith("verdict: PASS")


class TestValueStress:
    def test_false_accepts_are_measurable(self, stress_report):
        """The weakened cache must actually produce silent accepts."""
        rate = stress_report.false_accept_rate("plutus")
        assert rate > 0.05

    def test_measured_rate_tracks_analytic_model(self, stress_report):
        config = stress_report.spec.value_cache_config
        cell = stress_report.matrix[("plutus", FaultKind.BITFLIP)]
        predicted = value_cache_false_accept_rate(
            config, config.transient_capacity
        )
        assert cell.false_accept_rate == pytest.approx(predicted, abs=0.25)

    def test_unquantified_outcomes_still_clean(self, stress_report):
        assert not stress_report.missed
        assert not stress_report.disallowed_false_accepts
        assert stress_report.supervision.ok
        assert stress_report.ok

    def test_default_geometry_rate_is_below_mac_bound(self):
        """With paper-default geometry the analytic rate is negligible."""
        config = ValueCacheConfig()
        rate = value_cache_false_accept_rate(
            config, config.transient_capacity
        )
        assert rate <= mac_collision_rate(8)
