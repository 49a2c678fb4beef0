"""Record the result digests the benchmark verifies against.

From the root of a checkout, at a commit whose results are trusted:

    python3 perfbench/record.py --seed 2023 --seed 7

For every workload (or those named with --workload) and seed, one
untraced repetition at the benchmark's trace length; each experiment's
result digest is stored in references.json under the workload, trace
length and seed. A later change that moves any reported number counts
as failed operations until the digests are recorded again.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import run
import spec
import verify


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record reference result digests.")
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--workload", action="append",
                        choices=sorted(spec.WORKLOADS))
    args = parser.parse_args(argv)
    table = verify.load_table()
    for name in args.workload or sorted(spec.WORKLOADS):
        for seed in args.seed:
            rep = run.Repetitions(name, seed, time.monotonic() + 600).run()
            failed = [op["id"] for op in rep["ops"] if op["digest"] is None]
            if failed:
                print(f"{name} seed {seed}: not recorded, failed: "
                      f"{', '.join(failed)}", file=sys.stderr)
                return 1
            key = verify.reference_key(spec.TRACE_LENGTH, seed)
            table.setdefault(name, {})[key] = {
                op["id"]: op["digest"] for op in rep["ops"]
            }
            print(f"{name} seed {seed}: {len(rep['ops'])} digests, "
                  f"wall {rep['wall_s']:.2f} s")
    verify.save_table(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
