"""Tests for the caching experiment runner."""

from dataclasses import asdict

import pytest

from repro.gpu.simulator import replay_events
from repro.harness import runner
from repro.harness.experiments import EXPERIMENTS
from repro.harness.runner import ExperimentContext, _side_keys, engine_factories


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(trace_length=1500, benchmarks=["bfs", "lbm"])


class TestCaching:
    def test_trace_cached(self, ctx):
        assert ctx.trace("bfs") is ctx.trace("bfs")

    def test_event_log_cached(self, ctx):
        assert ctx.event_log("bfs") is ctx.event_log("bfs")

    def test_result_cached(self, ctx):
        assert ctx.run("bfs", "pssm") is ctx.run("bfs", "pssm")

    def test_results_keyed_by_engine(self, ctx):
        assert ctx.run("bfs", "pssm") is not ctx.run("bfs", "plutus")


class TestFactories:
    def test_headline_engines_exist(self, ctx):
        for key in ("nosec", "pssm", "common-counters", "plutus"):
            assert key in ctx.factories

    def test_figure_variants_exist(self, ctx):
        for key in (
            "plutus:value-only",
            "gran:128B", "gran:32B-leaf", "gran:32B-all",
            "compact:2bit", "compact:3bit", "compact:adaptive",
            "plutus:no-tree", "pssm:no-tree",
            "plutus:vcache-256", "pssm:4B-mac", "pssm:eager",
        ):
            assert key in ctx.factories, key

    def test_unknown_engine_rejected(self, ctx):
        with pytest.raises(KeyError):
            ctx.run("bfs", "quantum-engine")

    def test_run_custom(self, ctx):
        from repro.secure.engine import NoSecurityEngine

        result = ctx.run_custom(
            "bfs", "mine", lambda p, s, t: NoSecurityEngine(p, s, t)
        )
        assert result.metadata_bytes == 0
        assert ctx.run_custom(
            "bfs", "mine", lambda p, s, t: NoSecurityEngine(p, s, t)
        ) is result


class TestEngineKeySemantics:
    def test_value_only_generates_no_compact_traffic(self, ctx):
        from repro.mem.traffic import Stream

        result = ctx.run("bfs", "plutus:value-only")
        assert result.traffic.bytes_by_stream[Stream.COMPACT_COUNTER_READ] == 0

    def test_gran_variants_have_no_value_or_compact(self, ctx):
        result = ctx.run("bfs", "gran:32B-all")
        assert result.engine_stats.value_verified_fills == 0
        assert result.engine_stats.compact_only_accesses == 0

    def test_no_tree_variant_moves_no_tree_bytes(self, ctx):
        assert ctx.run("bfs", "plutus:no-tree").traffic.tree_bytes == 0

    def test_4B_mac_moves_fewer_mac_bytes(self, ctx):
        full = ctx.run("lbm", "pssm")
        small = ctx.run("lbm", "pssm:4B-mac")
        assert small.traffic.mac_bytes <= full.traffic.mac_bytes


#: The experiments that replay engines, run in the CLI's sorted order.
REPLAY_EXPERIMENTS = (
    "fig06", "fig07", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig20", "fig21", "fig22",
)


def _count_replays(monkeypatch):
    """Route ``ctx.run``'s replays through a recorder; return its list."""
    calls = []

    def counting(log, factory, config):
        calls.append(factory)
        return replay_events(log, factory, config)

    monkeypatch.setattr(runner, "replay_events", counting)
    return calls


def _fields(result):
    """Everything a replay decides, for exact comparison."""
    traffic = result.traffic
    return (
        result.engine_name,
        dict(traffic.bytes_by_stream),
        dict(traffic.transactions_by_stream),
        asdict(result.engine_stats),
    )


def _split_keys():
    factories = engine_factories()
    return [k for k in factories if _side_keys(factories[k]) is not None]


class TestSharedSides:
    """``run`` composes split design points from memoized sides."""

    def test_split_keys(self):
        assert len(_split_keys()) == 22
        assert {"nosec", "common-counters", "recoverable"}.isdisjoint(
            _split_keys()
        )

    @pytest.mark.parametrize("order", ["registry", "reversed", "no-tree"])
    def test_composition_equals_whole_replay(self, order):
        # Each order meets all three cases (no side memoized, one,
        # both), from different starting points: registry order
        # replays pssm and plutus whole first, reversed order a
        # pinned-fraction key and then side-only replays, and no-tree
        # order the tree-off keys, whose counter sides must not stand
        # in for the tree-on keys after them.
        ctx = ExperimentContext(trace_length=1000, benchmarks=["bfs", "lbm"])
        keys = _split_keys()
        if order == "reversed":
            keys.reverse()
        elif order == "no-tree":
            keys.sort(key=lambda k: not k.endswith(":no-tree"))
        for bench in ctx.benchmarks:
            log = ctx.event_log(bench)
            for key in keys:
                whole = replay_events(log, ctx.factories[key], ctx.config)
                assert _fields(ctx.run(bench, key)) == _fields(whole), (
                    bench, key,
                )

    def test_aliases_share_both_sides(self):
        factories = engine_factories()
        plutus = _side_keys(factories["plutus"])
        assert _side_keys(factories["plutus:vcache-256"]) == plutus
        assert _side_keys(factories["plutus:pinned-0.25"]) == plutus
        assert _side_keys(factories["gran:128B"]) == _side_keys(
            factories["pssm"]
        )

    def test_alias_of_a_run_key_replays_nothing(self, monkeypatch):
        ctx = ExperimentContext(trace_length=500, benchmarks=["bfs"])
        ctx.run("bfs", "plutus")
        calls = _count_replays(monkeypatch)
        ctx.run("bfs", "plutus:vcache-256")
        assert calls == []

    def test_replay_experiments_take_fourteen_replays(self, monkeypatch):
        # Whole: nosec, pssm, common-counters. Counter sides: the two
        # 32 B granularities, the three compact designs, plutus. Value/MAC
        # sides: the default cache and the 64/128/512/1024-entry ones.
        ctx = ExperimentContext(trace_length=500, benchmarks=["bfs"])
        calls = _count_replays(monkeypatch)
        for key in sorted(REPLAY_EXPERIMENTS):
            EXPERIMENTS[key](ctx)
        assert len(calls) == 14

