"""Content-addressed work units and campaign fingerprints."""

import pytest

from repro.common.errors import ResilienceError
from repro.resilience import (
    Campaign,
    WorkUnit,
    campaign_fingerprint,
    canonical_params,
    json_roundtrip,
)


def unit(value=1, kind="cell", **extra):
    return WorkUnit(
        kind=kind,
        params={"value": value, **extra},
        runner=lambda: {"value": value},
        label=f"cell[{value}]",
    )


class TestCanonicalParams:
    def test_key_order_does_not_matter(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params(
            {"b": 2, "a": 1}
        )

    def test_whitespace_free_and_sorted(self):
        assert canonical_params({"b": 2, "a": 1}) == '{"a":1,"b":2}'

    def test_non_jsonable_params_rejected(self):
        with pytest.raises(ResilienceError, match="not JSON-able"):
            canonical_params({"bad": object()})


class TestJsonRoundtrip:
    def test_preserves_dict_key_order(self):
        # Report tables render columns in insertion order, so the
        # roundtrip must not sort keys.
        assert list(json_roundtrip({"z": 1, "a": 2})) == ["z", "a"]

    def test_normalizes_tuples_to_lists(self):
        assert json_roundtrip({"axis": (1, 2)}) == {"axis": [1, 2]}

    def test_non_jsonable_result_rejected(self):
        with pytest.raises(ResilienceError, match="not JSON-able"):
            json_roundtrip({"bad": object()})


class TestWorkUnit:
    def test_identity_ignores_param_order_and_runner(self):
        a = WorkUnit(kind="cell", params={"x": 1, "y": 2}, runner=lambda: 1)
        b = WorkUnit(kind="cell", params={"y": 2, "x": 1}, runner=lambda: 2)
        assert a.unit_id == b.unit_id

    def test_identity_depends_on_params_and_kind(self):
        base = WorkUnit(kind="cell", params={"x": 1})
        assert base.unit_id != WorkUnit(kind="cell", params={"x": 2}).unit_id
        assert base.unit_id != WorkUnit(kind="other", params={"x": 1}).unit_id

    def test_label_defaults_to_kind(self):
        assert WorkUnit(kind="cell", params={}).label == "cell"

    def test_execute_without_runner_rejected(self):
        with pytest.raises(ResilienceError, match="no runner"):
            WorkUnit(kind="cell", params={}).execute()

    def test_execute_normalizes_result(self):
        u = WorkUnit(kind="cell", params={}, runner=lambda: {"axis": (1, 2)})
        assert u.execute() == {"axis": [1, 2]}


class TestCampaign:
    def test_empty_campaign_rejected(self):
        with pytest.raises(ResilienceError, match="no units"):
            Campaign(name="empty", units=[])

    def test_duplicate_unit_ids_rejected(self):
        with pytest.raises(ResilienceError, match="duplicate unit id"):
            Campaign(name="dup", units=[unit(1), unit(1)])

    def test_fingerprint_is_order_sensitive(self):
        forward = Campaign(name="c", units=[unit(1), unit(2)])
        backward = Campaign(name="c", units=[unit(2), unit(1)])
        assert forward.fingerprint != backward.fingerprint

    def test_fingerprint_depends_on_name(self):
        assert (
            Campaign(name="a", units=[unit(1)]).fingerprint
            != Campaign(name="b", units=[unit(1)]).fingerprint
        )

    def test_fingerprint_matches_helper(self):
        units = [unit(1), unit(2)]
        campaign = Campaign(name="c", units=units)
        assert campaign.fingerprint == campaign_fingerprint("c", units)
