"""The repo-wide content-addressing primitive.

Experiment-context fingerprints, resilience work-unit ids, and
campaign fingerprints all hash through this one function, so "same
inputs" means the same thing everywhere. It lives in
:mod:`repro.common` because both the harness and the resilience layer
depend on it — neither may import the other.
"""

from __future__ import annotations

import hashlib


def content_digest(*parts: str) -> str:
    """SHA-256 over framed string parts, truncated to 32 hex chars.

    Parts are framed with a separator byte so that ``("ab", "c")`` and
    ``("a", "bc")`` hash differently.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()[:32]
