"""Performance gate: this checkout against a base checkout, on perfbench.

    python3 benchmarks/perfbench_ab.py BASE_CHECKOUT WORKLOAD

Runs each tree's own ``perfbench/run.py``, unchanged, in ten pairs of
calls whose order alternates (base first, then head first), at seed
2023 with ``--seconds 0``, so each call is one repetition and the pairs
supply the samples. The head is the checkout this script sits in.

Before the pairs each tree makes one unscored warm-up call: a tree's
first call compiles its bytecode, which inflates ``setup_s`` and peak
RSS. The head's warm-up is traced (``--trace 1``), so perfbench's
self-checks run on it as well as its result digests.

The end-to-end metrics and their bounds are the ``end_to_end`` list of
the head's ``BENCHMARK.json``. For each one the script prints the base
and head medians, their difference, the bound and the number of pairs
the head won, and it exits 1 when:

* the head's median is worse than the base's by more than the bound;
* any call exits non-zero or prints no result;
* a head call reports ``"correct": false`` or ``failed > 0``.

Otherwise it exits 0; exit 2 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

HEAD = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 2023


class CallFailed(RuntimeError):
    """A ``perfbench/run.py`` call exited non-zero or printed no result."""


def benchmark_spec() -> dict:
    """The head's ``BENCHMARK.json``."""
    return json.loads((HEAD / "BENCHMARK.json").read_text())


def run_perfbench(tree: Path, workload: str, *extra: str) -> dict:
    """One ``perfbench/run.py`` call of *tree*: its last line, parsed."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         *extra],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        if line.startswith(("failed operation", "self-check failed")):
            print(f"  {tree}: {line}")
    if done.returncode != 0:
        raise CallFailed(f"{tree}: run.py exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise CallFailed(f"{tree}: run.py printed no result") from None


def verdict(warmup: dict, base: List[dict], head: List[dict],
            bounds: List[dict]) -> Tuple[List[str], List[str]]:
    """The report and the failures of the head against the base.

    *warmup* is the head's traced warm-up result, *base* and *head* the
    scored results pair by pair, and *bounds* the ``end_to_end``
    entries of ``BENCHMARK.json``.
    """
    failures = []
    calls = [("head warm-up", warmup)] + [
        (f"head pair {pair}", result) for pair, result in enumerate(head, 1)
    ]
    for label, result in calls:
        if result["correct"] is not True or result["failed"]:
            failures.append(
                f"{label}: correct {result['correct']}, failed "
                f"{result['failed']} of {result['attempted']} operations"
            )
    report = []
    for bound in bounds:
        name, limit, unit = bound["name"], bound["bound"], bound["unit"]
        sign = 1 if bound["better"] == "lower" else -1
        base_values = [r["metrics"][name]["value"] for r in base]
        head_values = [r["metrics"][name]["value"] for r in head]
        delta = statistics.median(head_values) - statistics.median(base_values)
        won = sum(sign * (h - b) < 0 for b, h in zip(base_values, head_values))
        report.append(
            f"{name}: base {statistics.median(base_values):.3f} {unit}, head "
            f"{statistics.median(head_values):.3f} {unit}, head - base "
            f"{delta:+.3f} {unit} (bound {limit}); head better in "
            f"{won}/{len(head_values)} pairs"
        )
        if sign * delta > limit:
            failures.append(
                f"{name}: the head is worse than the base by "
                f"{abs(delta):.3f} {unit}, beyond the bound of {limit} {unit}"
            )
    return report, failures


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path,
                        help="checkout of the commit to compare against")
    parser.add_argument("workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="a workload of BENCHMARK.json")
    args = parser.parse_args(argv)
    base = args.base.resolve()
    if not (base / "perfbench" / "run.py").is_file():
        parser.error(f"{base} has no perfbench/run.py")
    bounds = spec["end_to_end"]

    scored: dict = {"base": [], "head": []}
    order = [("base", base), ("head", HEAD)]
    try:
        run_perfbench(base, args.workload)
        warmup = run_perfbench(HEAD, args.workload, "--trace", "1")
        for pair in range(PAIRS):
            for side, tree in order[::-1] if pair % 2 else order:
                result = run_perfbench(tree, args.workload)
                scored[side].append(result)
                print(f"pair {pair + 1} {side}: " + ", ".join(
                    f"{b['name']} {result['metrics'][b['name']]['value']:.3f}"
                    for b in bounds))
    except CallFailed as exc:
        print(f"perfbench_ab.py: {exc}", file=sys.stderr)
        return 1

    report, failures = verdict(warmup, scored["base"], scored["head"], bounds)
    print(f"{args.workload}: {PAIRS} pairs, seed {SEED}")
    for line in report:
        print(f"  {line}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
