"""The ``cache`` subcommand: stats and LRU GC."""

import json

import pytest

from repro.common.errors import EXIT_OK, EXIT_USAGE
from repro.harness.cache_cli import cache_main
from repro.harness.diskcache import DiskCache


@pytest.fixture
def store(tmp_path):
    cache = DiskCache(str(tmp_path / "cache"))
    cache.root.mkdir(parents=True)
    for index, name in enumerate(("old", "mid", "new")):
        path = cache.root / f"{name}.txt"
        path.write_text("x" * 100, encoding="utf-8")
        import os
        import time

        past = time.time() - (300 - index * 100)
        os.utime(path, (past, past))
    return cache


def run_cli(args, capsys):
    code = cache_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_text_report(self, store, capsys):
        code, out, _ = run_cli(
            ["--cache-dir", str(store.root), "stats"], capsys
        )
        assert code == EXIT_OK
        assert "entries:         3" in out
        assert "lifetime hits:   0" in out

    def test_json_report(self, store, capsys):
        code, out, _ = run_cli(
            ["--cache-dir", str(store.root), "stats", "--json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["entries"] == 3
        assert payload["total_bytes"] == 300
        assert set(payload) == {"root", "entries", "total_bytes", "counters"}

    def test_disabled_store_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        code, _, err = run_cli(["stats"], capsys)
        assert code == EXIT_USAGE
        assert "disabled" in err


class TestGc:
    def test_evicts_lru_to_budget(self, store, capsys):
        code, out, _ = run_cli(
            ["--cache-dir", str(store.root), "gc", "--max-bytes", "100"],
            capsys,
        )
        assert code == EXIT_OK
        assert "evicted 2 of 3 entries" in out
        assert [p.name for p in store.entries()] == ["new.txt"]

    def test_dry_run_reports_without_deleting(self, store, capsys):
        code, out, _ = run_cli(
            ["--cache-dir", str(store.root), "gc", "--max-bytes", "0",
             "--dry-run", "--json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dry_run"] is True
        assert payload["evicted"] == 3
        assert len(store.entries()) == 3

    def test_negative_budget_is_a_usage_error(self, store, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cache_main(
                ["--cache-dir", str(store.root), "gc", "--max-bytes", "-1"]
            )
        assert excinfo.value.code == EXIT_USAGE
