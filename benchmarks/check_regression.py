"""Performance-regression gate for CI (and local use).

Runs a quick pytest-benchmark subset, normalizes the measured means by
an on-machine calibration loop (so a slow CI runner is compared against
itself, not against the machine that recorded the baseline), and
compares against the committed ``benchmarks/baseline.json``:

* a bench whose normalized mean exceeds baseline x ``--tolerance`` is a
  **regression** and fails the gate;
* the full comparison is written to ``--output`` for artifact upload.

Re-baselining after an intentional performance change::

    PYTHONPATH=src python benchmarks/check_regression.py --rebaseline

then commit the updated ``benchmarks/baseline.json``.

A second mode gates the ``repro.harness bench`` trajectory instead:
``--trajectory-entry fresh.json`` compares one fresh bench entry
(calibration-normalized serial events/sec per engine) against the
latest comparable entry in ``--trajectory`` (default
``benchmarks/BENCH_0001.json``) and fails on a normalized slowdown
beyond ``--tolerance``.

Both modes normalize with the same calibration loop,
:func:`repro.harness.bench.calibrate`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.harness.bench import calibrate

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline.json"
BASELINE_SCHEMA = "repro.bench-baseline/1"

#: The quick gate subset: one analysis-heavy bench and one that sweeps
#: real simulations across the roster, so both compute styles are
#: timed. Kept small — the gate must stay a few minutes, not an hour.
BENCH_SUBSET = [
    "benchmarks/bench_eq1_forgery.py",
    "benchmarks/bench_fig06_security_overhead.py",
]

#: Trace length for the gate's simulations (small but non-trivial).
GATE_TRACE_LEN = "2000"


def run_bench_subset() -> dict:
    """Run the gate subset under pytest-benchmark; return name -> mean."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        env = dict(os.environ)
        env.setdefault("PYTHONPATH", "src")
        env["REPRO_BENCH_TRACE_LEN"] = GATE_TRACE_LEN
        env["REPRO_BENCH_METRICS_OUT"] = ""  # no side artifacts
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            *BENCH_SUBSET,
            "-q",
            f"--benchmark-json={out}",
        ]
        proc = subprocess.run(cmd, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"bench subset failed (exit {proc.returncode})")
        payload = json.loads(out.read_text())
    return {
        bench["name"]: bench["stats"]["mean"]
        for bench in payload["benchmarks"]
    }


def _entry_path(entry: dict) -> str:
    """Replay path an entry measured; pre-columnar entries are object."""
    return entry.get("path", "object")


def _latest_matching(entry: dict, entries: list, path: str):
    """Latest trajectory entry comparable to *entry* on replay *path*."""
    for candidate in reversed(entries):
        if (
            candidate.get("benchmark") == entry.get("benchmark")
            and candidate.get("length") == entry.get("length")
            and candidate.get("seed") == entry.get("seed")
            and _entry_path(candidate) == path
        ):
            return candidate
    return None


def compare_trajectory(entry: dict, trajectory: dict, tolerance: float,
                       min_improvement: float = 3.0) -> dict:
    """Compare a fresh ``bench`` entry against the committed trajectory.

    Throughputs are normalized by each entry's own calibration number
    (``eps * calibration_seconds`` = events per calibration unit of
    CPU), so a slow runner is compared against what the recording
    machine would have measured at its speed. An engine whose normalized
    ``serial_eps`` drops below ``reference / tolerance`` is a
    regression.

    Entries record which replay ``path`` they measured (absent means
    the pre-columnar object path). Regressions always compare same
    path against same path; when the fresh entry measured the columnar
    path *and* the trajectory holds a comparable object-path entry, a
    second **improvement gate** arms: every engine row must show at
    least ``min_improvement`` x the object entry's normalized serial
    throughput — the columnar core's payoff, demonstrated, not assumed.
    """
    entries = trajectory.get("entries") or []
    entry_path = _entry_path(entry)
    reference = _latest_matching(entry, entries, entry_path)
    cur_cal = float(entry["calibration_seconds"])
    report: dict = {
        "tolerance": tolerance,
        "path": entry_path,
        "calibration_seconds": cur_cal,
        "reference": None,
        "rows": [],
        "regressions": [],
    }
    if reference is None:
        report["note"] = (
            f"no comparable {entry_path}-path trajectory entry "
            f"(benchmark/length/seed mismatch); nothing to gate"
        )
    else:
        ref_cal = float(reference["calibration_seconds"])
        rows = []
        for engine, current in sorted(entry.get("engines", {}).items()):
            base = reference.get("engines", {}).get(engine) or {}
            cur_eps = current.get("serial_eps")
            base_eps = base.get("serial_eps")
            name = f"{engine}:serial_eps"
            if cur_eps is None:
                continue
            if base_eps is None:
                rows.append({"name": name, "status": "new", "eps": cur_eps})
                continue
            cur_norm = cur_eps * cur_cal
            base_norm = base_eps * ref_cal
            ratio = cur_norm / base_norm if base_norm else float("inf")
            status = "regression" if ratio < 1.0 / tolerance else "ok"
            rows.append(
                {
                    "name": name,
                    "status": status,
                    "eps": cur_eps,
                    "reference_eps": base_eps,
                    "normalized_ratio": ratio,
                }
            )
        rows.sort(key=lambda r: r.get("normalized_ratio", float("inf")))
        report["reference"] = {
            "recorded": reference.get("recorded"),
            "calibration_seconds": ref_cal,
        }
        report["rows"] = rows
        report["regressions"] = [
            r["name"] for r in rows if r["status"] == "regression"
        ]

    if entry_path != "object":
        object_ref = _latest_matching(entry, entries, "object")
        if object_ref is None:
            report["improvement_note"] = (
                "no comparable object-path entry; improvement gate not armed"
            )
        else:
            report["improvement"] = _gate_improvement(
                entry, object_ref, cur_cal, min_improvement
            )
    return report


def _gate_improvement(entry: dict, object_ref: dict, cur_cal: float,
                      min_improvement: float) -> dict:
    """Demand the columnar speedup from every engine row."""
    ref_cal = float(object_ref["calibration_seconds"])
    rows = []
    failures = []
    for engine, current in sorted(entry.get("engines", {}).items()):
        cur_eps = current.get("serial_eps")
        base = object_ref.get("engines", {}).get(engine, {})
        base_eps = base.get("serial_eps")
        if cur_eps is None or not base_eps:
            continue
        ratio = (cur_eps * cur_cal) / (base_eps * ref_cal)
        ok = ratio >= min_improvement
        rows.append(
            {
                "name": f"{engine}:serial_eps",
                "status": "improved" if ok else "below-min-improvement",
                "eps": cur_eps,
                "object_reference_eps": base_eps,
                "normalized_ratio": ratio,
            }
        )
        if not ok:
            failures.append(f"{engine}:serial_eps")
    if not rows:
        failures.append(
            "no engine rows to demonstrate the columnar speedup"
        )
    return {
        "min_improvement": min_improvement,
        "object_reference": {
            "recorded": object_ref.get("recorded"),
            "calibration_seconds": ref_cal,
        },
        "rows": rows,
        "failures": failures,
    }


def compare(current: dict, baseline: dict, calibration: float,
            tolerance: float, min_time: float) -> dict:
    """Normalized current-vs-baseline comparison, most-regressed first."""
    base_cal = baseline["calibration_seconds"]
    rows = []
    for name, mean in sorted(current.items()):
        base_mean = baseline["benchmarks"].get(name)
        if base_mean is None:
            rows.append({"name": name, "status": "new", "mean": mean})
            continue
        ratio = (mean / calibration) / (base_mean / base_cal)
        if mean < min_time and base_mean < min_time:
            # Sub-min_time benches are timer noise; the ratio test only
            # arms once either side is measurably slow.
            status = "ok"
        else:
            status = "regression" if ratio > tolerance else "ok"
        rows.append(
            {
                "name": name,
                "status": status,
                "mean": mean,
                "baseline_mean": base_mean,
                "normalized_ratio": ratio,
            }
        )
    missing = sorted(set(baseline["benchmarks"]) - set(current))
    rows.sort(key=lambda r: -r.get("normalized_ratio", 0.0))
    return {
        "tolerance": tolerance,
        "calibration_seconds": calibration,
        "baseline_calibration_seconds": base_cal,
        "rows": rows,
        "missing_from_run": missing,
        "regressions": [r["name"] for r in rows if r["status"] == "regression"],
    }


def _load_json_or_usage(path: Path, what: str) -> dict:
    """Read a JSON dict for the trajectory gate, or exit 2 with advice.

    A missing or mangled file is a usage problem (wrong path, bench
    never ran), not a regression — report it plainly instead of letting
    the traceback land in the CI log.
    """
    def usage_exit(message: str) -> SystemExit:
        print(message, file=sys.stderr)
        return SystemExit(2)

    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise usage_exit(
            f"error: {what} {path} does not exist; generate it with "
            f"`repro.harness bench --entry-out` or check the path"
        )
    except (OSError, json.JSONDecodeError) as exc:
        raise usage_exit(f"error: {what} {path} is unreadable: {exc}")
    if not isinstance(payload, dict):
        raise usage_exit(f"error: {what} {path} does not hold a JSON object")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=1.75,
        help="max allowed normalized slowdown per bench (default 1.75)",
    )
    parser.add_argument(
        "--min-time", type=float, default=0.05, metavar="SECONDS",
        help="benches faster than this on both sides never regress "
             "(default 0.05s — below that the timer noise dominates)",
    )
    parser.add_argument(
        "--output", default="comparison.json", metavar="PATH",
        help="where to write the comparison artifact",
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="record current means as the new baseline and exit",
    )
    parser.add_argument(
        "--trajectory-entry", default=None, metavar="PATH",
        help="compare a fresh `repro.harness bench --entry-out` JSON "
             "against --trajectory instead of running the pytest gate",
    )
    parser.add_argument(
        "--trajectory", default=str(HERE / "BENCH_0001.json"),
        metavar="PATH",
        help="committed trajectory file for --trajectory-entry "
             "(default benchmarks/BENCH_0001.json)",
    )
    parser.add_argument(
        "--min-improvement", type=float, default=3.0, metavar="RATIO",
        help="required normalized serial speedup of every engine in a "
             "columnar --trajectory-entry over the latest object-path "
             "entry (default 3.0)",
    )
    args = parser.parse_args(argv)

    if args.trajectory_entry:
        entry = _load_json_or_usage(
            Path(args.trajectory_entry), "fresh bench entry"
        )
        trajectory = _load_json_or_usage(
            Path(args.trajectory), "trajectory file"
        )
        if not trajectory.get("entries"):
            print(
                f"error: trajectory file {args.trajectory} has no entries; "
                f"run `repro.harness bench` to record one, or point "
                f"--trajectory at the committed benchmarks/BENCH_0001.json",
                file=sys.stderr,
            )
            return 2
        report = compare_trajectory(
            entry, trajectory, args.tolerance, args.min_improvement
        )
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        if report.get("note"):
            print(report["note"])
        for row in report["rows"]:
            ratio = row.get("normalized_ratio")
            detail = f" ratio={ratio:.2f}" if ratio is not None else ""
            print(f"  {row['status']:>10}  {row['name']}{detail}")
        improvement = report.get("improvement")
        if report.get("improvement_note"):
            print(report["improvement_note"])
        if improvement:
            for row in improvement["rows"]:
                print(
                    f"  {row['status']:>22}  {row['name']} "
                    f"ratio={row['normalized_ratio']:.2f} "
                    f"(need >= {improvement['min_improvement']:.2f})"
                )
        failed = False
        if report["regressions"]:
            print(f"REGRESSIONS: {report['regressions']}", file=sys.stderr)
            failed = True
        if improvement and improvement["failures"]:
            print(
                f"IMPROVEMENT GATE FAILED: {improvement['failures']}",
                file=sys.stderr,
            )
            failed = True
        return 1 if failed else 0

    calibration = calibrate()
    print(f"calibration: {calibration * 1e3:.1f} ms")
    current = run_bench_subset()

    if args.rebaseline:
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "schema": BASELINE_SCHEMA,
                    "calibration_seconds": calibration,
                    "trace_length": int(GATE_TRACE_LEN),
                    "benchmarks": current,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"baseline rewritten: {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --rebaseline",
              file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    report = compare(
        current, baseline, calibration, args.tolerance, args.min_time
    )

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    for row in report["rows"]:
        ratio = row.get("normalized_ratio")
        detail = f" ratio={ratio:.2f}" if ratio is not None else ""
        print(f"  {row['status']:>10}  {row['name']}{detail}")

    if report["regressions"]:
        print(f"REGRESSIONS: {report['regressions']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
