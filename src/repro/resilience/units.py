"""Content-addressed work units and campaigns.

A *work unit* is the supervisor's atom of progress: a pure-ish callable
(the runner) plus the JSON-able parameters that define its identity.
The unit id is a content hash over kind and canonicalized parameters —
the same :func:`~repro.common.digest.content_digest` primitive the
disk cache keys artifacts with — so that a resumed run recognizes
exactly the units of the original run, regardless of process, order,
or machine.

A *campaign* is an ordered unit list with a fingerprint hashed over
the campaign name and every unit id. The journal records the
fingerprint at run start; ``--resume`` refuses a journal whose
fingerprint differs, which is what keeps "resume" from silently
merging results of a differently parameterized run.

Runner return values must be JSON round-trippable: the supervisor
normalizes every result through ``json.dumps``/``json.loads`` so a
value read back from the journal is *identical* to one computed fresh
— the property behind byte-identical resumed reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.digest import content_digest
from repro.common.errors import ResilienceError


def canonical_params(params: Dict[str, object]) -> str:
    """Key-sorted, whitespace-free JSON naming a unit's identity."""
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ResilienceError(
            f"work-unit params are not JSON-able: {exc}"
        ) from None


def json_roundtrip(payload: object) -> object:
    """Normalize a runner result through JSON.

    Raises :class:`ResilienceError` for non-JSON-able payloads (the
    journal could not persist them). Dict key *order* is preserved —
    canonicalization is for identity, results keep their shape.
    """
    try:
        return json.loads(json.dumps(payload))
    except (TypeError, ValueError) as exc:
        raise ResilienceError(
            f"work-unit result is not JSON-able: {exc}"
        ) from None


@dataclass
class WorkUnit:
    """One supervised unit: identity params plus the runner callable.

    ``params`` define the unit id; the runner does not (two campaigns
    computing the same cell share completed work through the journal).
    ``label`` is the human name used in reports and the journal.
    """

    kind: str
    params: Dict[str, object]
    runner: Optional[Callable[[], object]] = None
    label: str = ""
    unit_id: str = field(init=False)

    def __post_init__(self) -> None:
        if not self.label:
            self.label = self.kind
        self.unit_id = content_digest(
            "unit", self.kind, canonical_params(self.params)
        )

    def execute(self) -> object:
        """Run the unit and return its JSON-normalized result payload."""
        if self.runner is None:
            raise ResilienceError(
                f"work unit {self.label!r} has no runner attached"
            )
        return json_roundtrip(self.runner())


def campaign_fingerprint(name: str, units: "List[WorkUnit]") -> str:
    """Content hash over the campaign name and every unit id, in order."""
    return content_digest("campaign", name, *(u.unit_id for u in units))


@dataclass
class Campaign:
    """An ordered, fingerprinted unit list for one supervised run."""

    name: str
    units: List[WorkUnit]
    fingerprint: str = field(init=False)

    def __post_init__(self) -> None:
        if not self.units:
            raise ResilienceError(f"campaign {self.name!r} has no units")
        seen: Dict[str, str] = {}
        for unit in self.units:
            other = seen.get(unit.unit_id)
            if other is not None:
                raise ResilienceError(
                    f"campaign {self.name!r} has duplicate unit id for "
                    f"{unit.label!r} and {other!r}"
                )
            seen[unit.unit_id] = unit.label
        self.fingerprint = campaign_fingerprint(self.name, self.units)

    @property
    def default_run_id(self) -> str:
        """The content-addressed run id used when none is given."""
        return self.fingerprint[:12]
