"""The ``cache`` harness subcommand: artifact-store stats and GC.

``python -m repro.harness cache stats [--json]`` reports the store's
entry and byte counts and lifetime hit/miss/corruption counters
(persisted across processes via ``counters.json``).

``python -m repro.harness cache gc --max-bytes N [--dry-run]`` evicts
least-recently-used entries until the store fits in N bytes.
``--dry-run`` prints what would be evicted without deleting anything.

Exit statuses follow the harness convention (see
:mod:`repro.common.errors`): 0 on success — including a GC that had
nothing to evict — and 2 for usage errors such as a disabled cache.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.common.errors import EXIT_OK, EXIT_USAGE
from repro.harness.diskcache import DiskCache
from repro.harness.logsetup import add_logging_flags, setup_logging


def _human_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{int(count)} B"  # pragma: no cover - unreachable


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness cache",
        description="Inspect and garbage-collect the shared on-disk "
                    "artifact store.",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="store root (default: $REPRO_CACHE_DIR or .cache)",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    stats = sub.add_parser(
        "stats", help="entry/byte counts, lifetime counters"
    )
    stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    add_logging_flags(stats)
    gc = sub.add_parser(
        "gc", help="evict LRU entries down to a byte budget"
    )
    gc.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="target total size; oldest entries are evicted until the "
             "store fits",
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting",
    )
    gc.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    add_logging_flags(gc)
    return parser


def cache_main(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    setup_logging(args)
    cache = DiskCache.from_spec(args.cache_dir)
    if cache is None:
        print("error: disk caching is disabled (empty cache dir)",
              file=sys.stderr)
        return EXIT_USAGE
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return EXIT_OK
        counters = stats["counters"]
        print(f"cache root:      {stats['root']}")
        print(f"entries:         {stats['entries']} "
              f"({_human_bytes(stats['total_bytes'])})")
        print(f"lifetime hits:   {counters['hits']}")
        print(f"lifetime misses: {counters['misses']}")
        print(f"lifetime stores: {counters['stores']}")
        print(f"corrupt entries: {counters['corrupt_entries']}")
        return EXIT_OK
    if args.max_bytes < 0:
        parser.error("--max-bytes cannot be negative")
    result = cache.gc(args.max_bytes, dry_run=args.dry_run)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    verb = "would evict" if result.dry_run else "evicted"
    print(
        f"{verb} {result.evicted} of {result.examined} entries "
        f"({_human_bytes(result.freed_bytes)} freed, "
        f"{_human_bytes(result.remaining_bytes)} remain)"
    )
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(cache_main(sys.argv[1:]))
