"""The distributed executor: factory specs, merge determinism, the fleet.

The expensive contracts — worker subprocesses, a real ``kill -9``
mid-unit followed by a steal, coordinator-crash recovery through the
initial merge — run against :func:`demo_campaign`, the dependency-free
arithmetic workload, so they exercise the full lease machinery in a
few hundred milliseconds of actual work.
"""

import json
import os
import random
import signal
import threading
import time

import pytest

from repro.common.errors import EXIT_OK, ResilienceError
from repro.resilience import (
    STATUS_OK,
    STATUS_SKIPPED,
    DistributedConfig,
    DistributedSupervisor,
    RetryPolicy,
    RunJournal,
    Supervisor,
    WorkQueue,
    build_campaign,
    demo_campaign,
    factory_spec,
    merge_records,
)
from repro.resilience.distributed import write_campaign_spec
from repro.resilience.worker import WORKERS_DIR, Worker

DEMO_FACTORY = "repro.resilience.distributed:demo_campaign"


def open_run(tmp_path, campaign, run_id="run1"):
    journal = RunJournal.open(tmp_path, run_id, campaign)
    return journal, tmp_path / run_id


def make_supervisor(journal, **config_kwargs):
    config_kwargs.setdefault("workers", 2)
    config_kwargs.setdefault("lease_ttl_s", 2.0)
    spec = factory_spec(
        DEMO_FACTORY, config_kwargs.pop("factory_kwargs", {"values": [1, 2]})
    )
    return DistributedSupervisor(
        DistributedConfig(**config_kwargs), spec, journal
    )


class TestFactorySpec:
    def test_spec_requires_module_colon_function(self):
        with pytest.raises(ResilienceError):
            factory_spec("not-a-reference")

    def test_build_resolves_and_invokes(self):
        campaign = build_campaign(
            factory_spec(DEMO_FACTORY, {"values": [2, 3]})
        )
        assert campaign.name == "demo"
        assert len(campaign.units) == 2

    def test_build_rejects_unknown_factory(self):
        with pytest.raises(ResilienceError, match="cannot resolve"):
            build_campaign(factory_spec("repro.no_such_module:fn"))

    def test_build_rejects_fingerprint_mismatch(self):
        spec = factory_spec(DEMO_FACTORY, {"values": [1, 2]})
        spec["fingerprint"] = "0" * 12
        with pytest.raises(ResilienceError, match="not reproducible"):
            build_campaign(spec)

    def test_build_validates_matching_fingerprint(self):
        spec = factory_spec(DEMO_FACTORY, {"values": [1, 2]})
        spec["fingerprint"] = demo_campaign([1, 2]).fingerprint
        assert build_campaign(spec).fingerprint == spec["fingerprint"]


def unit_record(campaign, index, worker, status="ok", gen=1):
    unit = campaign.units[index]
    record = {
        "type": "unit",
        "unit_id": unit.unit_id,
        "status": status,
        "worker": worker,
        "gen": gen,
    }
    if status == "ok":
        record["result"] = {"value": index, "square": index * index}
    return record


class TestMergeRecords:
    def test_merge_follows_campaign_unit_order(self):
        campaign = demo_campaign([1, 2, 3])
        records = {
            "w1": [unit_record(campaign, 2, "w1")],
            "w0": [unit_record(campaign, 0, "w0")],
        }
        merged = merge_records(campaign, records)
        assert [r["unit_id"] for r in merged] == [
            campaign.units[0].unit_id, campaign.units[2].unit_id
        ]

    def test_ok_beats_failed_across_workers(self):
        campaign = demo_campaign([1])
        records = {
            "w0": [unit_record(campaign, 0, "w0", status="failed")],
            "w1": [unit_record(campaign, 0, "w1", gen=2)],
        }
        (merged,) = merge_records(campaign, records)
        assert (merged["status"], merged["worker"]) == ("ok", "w1")

    def test_ok_is_sticky_within_one_worker(self):
        campaign = demo_campaign([1])
        records = {
            "w0": [
                unit_record(campaign, 0, "w0"),
                unit_record(campaign, 0, "w0", status="failed"),
            ],
        }
        (merged,) = merge_records(campaign, records)
        assert merged["status"] == "ok"

    def test_tie_breaks_to_done_marker_winner_then_min_worker(self):
        campaign = demo_campaign([1])
        records = {
            "w0": [unit_record(campaign, 0, "w0")],
            "w3": [unit_record(campaign, 0, "w3", gen=2)],
        }
        winners = {campaign.units[0].unit_id: "w3"}
        (merged,) = merge_records(campaign, records, winners)
        assert merged["worker"] == "w3"
        (merged,) = merge_records(campaign, records)
        assert merged["worker"] == "w0"

    def test_merge_is_order_deterministic(self):
        # Property: the merge depends on the *set* of records, never
        # on arrival order — any interleaving of worker journals (and
        # any dict insertion order) merges to the identical sequence.
        campaign = demo_campaign(list(range(8)))
        base = {
            "w0": [unit_record(campaign, i, "w0") for i in (0, 1, 2, 3)],
            "w1": [unit_record(campaign, i, "w1", gen=2) for i in (2, 3, 4)]
            + [unit_record(campaign, 5, "w1", status="failed")],
            "w2": [unit_record(campaign, i, "w2") for i in (5, 6, 7)],
        }
        winners = {campaign.units[2].unit_id: "w1"}
        reference = merge_records(campaign, base, winners)
        for seed in range(25):
            rng = random.Random(seed)
            workers = list(base)
            rng.shuffle(workers)
            shuffled = {}
            for worker in workers:
                records = list(base[worker])
                rng.shuffle(records)
                shuffled[worker] = records
            assert merge_records(campaign, shuffled, winners) == reference


class TestSpeculationTrigger:
    def run_speculate(self, tmp_path, *, done, lease_age_s, ttl=60.0,
                      **config_kwargs):
        campaign = demo_campaign([1])
        journal, run_dir = open_run(tmp_path, campaign)
        supervisor = make_supervisor(
            journal, speculate=True, lease_ttl_s=ttl, **config_kwargs
        )
        queue = WorkQueue(run_dir / "queue", default_ttl_s=ttl)
        queue.create()
        for index, elapsed in enumerate(done):
            queue.mark_done(f"done-{index}", "w0", "ok", elapsed_s=elapsed)
        lease = queue.claim("straggler", "w1")
        past = time.time() - lease_age_s
        os.utime(lease.path, (past, past))
        speculated = set()
        supervisor._speculate(queue, speculated)
        return queue, speculated

    def test_straggler_past_threshold_gets_one_request(self, tmp_path):
        # median 0.1s, factor 3 -> threshold 0.3s; age 1s trips it.
        queue, speculated = self.run_speculate(
            tmp_path, done=[0.1, 0.1, 0.1], lease_age_s=1.0
        )
        assert queue.speculation_requested("straggler", 1)
        assert speculated == {("straggler", 1)}
        # The request is remembered: no second request for this gen.
        before = queue.speculation_count()
        assert queue.request_speculation("straggler", 1) is False
        assert queue.speculation_count() == before

    def test_needs_minimum_completed_units(self, tmp_path):
        queue, speculated = self.run_speculate(
            tmp_path, done=[0.1, 0.1], lease_age_s=10.0
        )
        assert speculated == set()

    def test_fresh_fast_lease_is_left_alone(self, tmp_path):
        queue, speculated = self.run_speculate(
            tmp_path, done=[0.1, 0.1, 0.1], lease_age_s=0.0
        )
        assert speculated == set()

    def test_stale_lease_is_stealing_territory_not_speculation(
        self, tmp_path
    ):
        queue, speculated = self.run_speculate(
            tmp_path, done=[0.1, 0.1, 0.1], lease_age_s=5.0, ttl=2.0
        )
        assert speculated == set()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            DistributedConfig(workers=0)
        with pytest.raises(ResilienceError):
            DistributedConfig(lease_ttl_s=0.0)
        with pytest.raises(ResilienceError):
            DistributedConfig(speculate_factor=1.0)

    def test_derived_defaults(self):
        config = DistributedConfig(workers=4, lease_ttl_s=9.0)
        assert config.effective_heartbeat_s == pytest.approx(3.0)
        assert config.respawn_budget == 12
        assert DistributedConfig(max_respawns=1).respawn_budget == 1

    def test_requires_a_journal(self):
        with pytest.raises(ResilienceError, match="run journal"):
            DistributedSupervisor(
                DistributedConfig(), factory_spec(DEMO_FACTORY), None
            )


@pytest.mark.slow
class TestFleetEndToEnd:
    def test_demo_campaign_completes_on_two_workers(self, tmp_path):
        from repro.harness.diskcache import DiskCache

        values = [1, 2, 3, 4]
        campaign = demo_campaign(values)
        journal, _run_dir = open_run(tmp_path, campaign)
        supervisor = make_supervisor(
            journal, factory_kwargs={"values": values}
        )
        supervisor.cache_dir = str(tmp_path / "cache")
        store = DiskCache(supervisor.cache_dir)
        store.pin("run-run1-w0", "inflight.txt")  # as a worker would
        store.pin("run-other-w0", "foreign.txt")
        outcome = supervisor.run(campaign)
        assert outcome.exit_code == EXIT_OK
        assert [o.status for o in outcome.outcomes] == [STATUS_OK] * 4
        assert [o.result["square"] for o in outcome.outcomes] == [
            1, 4, 9, 16
        ]
        assert supervisor.spawned >= 2
        # The run's own pins are cleared once it ends; foreign ones stay.
        assert store.pin_ids() == ["run-other-w0"]

    def test_resume_reuses_every_journaled_unit(self, tmp_path):
        values = [1, 2, 3]
        campaign = demo_campaign(values)
        journal, _ = open_run(tmp_path, campaign)
        first = make_supervisor(journal, factory_kwargs={"values": values})
        assert first.run(campaign).exit_code == EXIT_OK

        journal2 = RunJournal.open(
            tmp_path, "run1", campaign, require_existing=True
        )
        second = make_supervisor(journal2, factory_kwargs={"values": values})
        outcome = second.run(campaign)
        assert outcome.exit_code == EXIT_OK
        assert [o.status for o in outcome.outcomes] == [STATUS_SKIPPED] * 3
        assert second.spawned == 0  # nothing pending -> no fleet

    def test_kill9_mid_unit_is_stolen_and_report_matches_serial(
        self, tmp_path
    ):
        # One unit sleeps long enough for the test to SIGKILL its
        # lease holder; the stale lease is stolen and re-executed, and
        # the final results equal an untouched serial run's.
        values = [1, 2, 3, 4, 5]
        kwargs = {"values": values, "sleep_map": {"3": 1.5}}
        campaign = demo_campaign(**kwargs)
        slow_unit = next(
            u for u in campaign.units if u.params["value"] == 3
        )
        journal, run_dir = open_run(tmp_path, campaign)
        supervisor = make_supervisor(
            journal, factory_kwargs=kwargs, lease_ttl_s=0.6,
            shutdown_grace_s=30.0,
        )
        outcome = {}

        def drive():
            outcome["value"] = supervisor.run(campaign)

        thread = threading.Thread(target=drive)
        thread.start()
        lease_path = run_dir / "queue" / "leases" / f"{slow_unit.unit_id}.g1"
        victim = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                payload = json.loads(lease_path.read_text())
                victim = int(payload["pid"])
                break
            except (OSError, ValueError, KeyError):
                time.sleep(0.02)
        assert victim is not None, "slow unit was never leased"
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=60.0)
        assert not thread.is_alive()

        result = outcome["value"]
        assert result.exit_code == EXIT_OK
        assert [o.status for o in result.outcomes] == [STATUS_OK] * 5
        assert supervisor.deaths >= 1
        assert supervisor.steals >= 1

        serial_journal = RunJournal.open(tmp_path, "serial", campaign)
        serial = Supervisor(
            policy=RetryPolicy(base_delay_s=0.0, jitter=0.0),
            journal=serial_journal,
        ).run(campaign)
        assert [o.result for o in result.outcomes] == [
            o.result for o in serial.outcomes
        ]

    def test_coordinator_crash_recovery_merges_before_spawning(
        self, tmp_path
    ):
        # Simulate a coordinator killed after its workers drained the
        # queue but before any merge: the campaign journal is empty,
        # yet worker journals and done markers hold every result. A
        # resumed coordinator must recover all of it without spawning.
        values = [1, 2, 3, 4]
        kwargs = {"values": values}
        campaign = demo_campaign(**kwargs)
        journal, run_dir = open_run(tmp_path, campaign)
        queue = WorkQueue(run_dir / "queue", default_ttl_s=5.0)
        queue.populate([u.unit_id for u in campaign.units])
        spec = factory_spec(DEMO_FACTORY, kwargs)
        write_campaign_spec(run_dir, spec, campaign)
        worker_journal = RunJournal.open(
            run_dir / WORKERS_DIR, "w0", campaign, meta={"worker": "w0"}
        )
        Worker(
            queue=queue,
            journal=worker_journal,
            campaign=campaign,
            worker_id="w0",
        ).run()
        assert queue.all_done([u.unit_id for u in campaign.units])
        assert all(
            r.get("type") != "unit" for r in journal.records()
        ), "campaign journal must start empty for this scenario"

        supervisor = DistributedSupervisor(
            DistributedConfig(workers=2), spec, journal
        )
        result = supervisor.run(campaign)
        assert result.exit_code == EXIT_OK
        assert supervisor.spawned == 0
        ok_records = [
            r for r in journal.records()
            if r.get("type") == "unit" and r.get("status") == "ok"
        ]
        assert len(ok_records) == len(values)  # exactly one per unit
        assert [o.result["square"] for o in result.outcomes] == [
            1, 4, 9, 16
        ]
