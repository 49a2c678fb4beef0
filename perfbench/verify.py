"""Result digests and the recorded references they are checked against."""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional

REFERENCES = Path(__file__).resolve().with_name("references.json")


def digest(payload: dict) -> str:
    """SHA-256 of an experiment's ``asdict(result)`` as sorted-key JSON.

    This is the payload the supervised journal stores, so any change to
    a reported number, row or note changes the digest.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_key(length: int, seed: int) -> str:
    return f"length={length} seed={seed}"


def load_table(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_table(table: dict, path: Path = REFERENCES) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def reference(workload: str, length: int,
              seed: int) -> Optional[Dict[str, str]]:
    """Recorded digests per experiment, or None for an unrecorded seed."""
    return load_table().get(workload, {}).get(reference_key(length, seed))


def failed_ops(ops: List[dict], expected: Dict[str, str]) -> List[str]:
    """Ids of operations that raised or whose digest is not *expected*."""
    return [
        op["id"] for op in ops
        if op["error"] is not None or op["digest"] != expected.get(op["id"])
    ]


def doctor(payload: dict) -> dict:
    """A copy of *payload* with one summary number moved by one ulp."""
    doctored = copy.deepcopy(payload)
    summary = doctored["summary"]
    key = min(summary)
    summary[key] = math.nextafter(summary[key], math.inf)
    return doctored
