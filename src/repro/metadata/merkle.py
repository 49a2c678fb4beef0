"""Functional Merkle tree with real hashes (for functional mode).

While :mod:`repro.metadata.bmt` models the *traffic* of tree walks, this
module implements the actual cryptographic object: an arity-N hash tree
whose only trusted state is the root. Leaves are arbitrary byte blobs
(counter blocks in the BMT use case); every internal node is the hash of
the concatenation of its children's hashes.

Nodes can live in untrusted storage: :meth:`verify_leaf` recomputes the
chain from the leaf data through supplied node hashes up to the on-chip
root and raises :class:`ReplayError` on any mismatch, which is exactly
the detection path exercised by the tamper-injection tests.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Optional

from repro.common.errors import ReplayError


def _hash_node(payload: bytes, hash_bytes: int) -> bytes:
    return hashlib.sha256(payload).digest()[:hash_bytes]


class MerkleTree:
    """An in-memory arity-N hash tree over mutable leaves.

    The tree keeps every level internally (playing the role of the
    metadata held in DRAM); the *root* is the only value a verifier must
    trust. ``node_hash(level, index)`` exposes stored node hashes so a
    test can corrupt them and observe detection.
    """

    def __init__(
        self,
        num_leaves: int,
        arity: int = 16,
        hash_bytes: int = 8,
        empty_leaf: bytes = b"",
    ) -> None:
        if num_leaves <= 0:
            raise ValueError("tree needs at least one leaf")
        if arity < 2:
            raise ValueError("arity must be at least 2")
        self.arity = arity
        self.hash_bytes = hash_bytes
        self.num_leaves = num_leaves
        empty = _hash_node(empty_leaf, hash_bytes)
        #: levels[0] = leaf hashes; levels[-1] = [root]
        self.levels: List[List[bytes]] = [[empty] * num_leaves]
        while len(self.levels[-1]) > 1:
            below = self.levels[-1]
            parents = [
                _hash_node(b"".join(below[i : i + arity]), hash_bytes)
                for i in range(0, len(below), arity)
            ]
            self.levels.append(parents)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    @property
    def height(self) -> int:
        """Number of levels including leaves and root."""
        return len(self.levels)

    def node_hash(self, level: int, index: int) -> bytes:
        """Stored (untrusted) hash of one node, for tests and attackers."""
        return self.levels[level][index]

    def corrupt_node(self, level: int, index: int, new_hash: bytes) -> None:
        """Attacker primitive: overwrite a stored node hash in place."""
        if len(new_hash) != self.hash_bytes:
            raise ValueError("hash length mismatch")
        self.levels[level][index] = new_hash

    def update_leaf(self, index: int, leaf_data: bytes) -> None:
        """Recompute the path from a modified leaf to the root (eager)."""
        if not 0 <= index < self.num_leaves:
            raise ValueError(f"leaf {index} out of range")
        self.levels[0][index] = _hash_node(leaf_data, self.hash_bytes)
        child = index
        for level in range(1, len(self.levels)):
            parent = child // self.arity
            start = parent * self.arity
            children = self.levels[level - 1][start : start + self.arity]
            self.levels[level][parent] = _hash_node(
                b"".join(children), self.hash_bytes
            )
            child = parent

    def verify_leaf(
        self,
        index: int,
        leaf_data: bytes,
        trusted_root: Optional[bytes] = None,
        node_reader: Optional[Callable[[int, int], bytes]] = None,
    ) -> None:
        """Check *leaf_data* against the (trusted) root.

        The chain is recomputed bottom-up: at each level the claimed
        sibling hashes come from *node_reader* (default: the stored,
        untrusted levels), and only the final comparison uses the trusted
        root. Raises :class:`ReplayError` on mismatch.
        """
        if not 0 <= index < self.num_leaves:
            raise ValueError(f"leaf {index} out of range")
        root = trusted_root if trusted_root is not None else self.root
        reader = node_reader or (lambda lvl, i: self.levels[lvl][i])

        running = _hash_node(leaf_data, self.hash_bytes)
        child = index
        for level in range(1, len(self.levels)):
            parent = child // self.arity
            start = parent * self.arity
            end = min(start + self.arity, len(self.levels[level - 1]))
            payload = b"".join(
                running if i == child else reader(level - 1, i)
                for i in range(start, end)
            )
            running = _hash_node(payload, self.hash_bytes)
            child = parent
        if running != root:
            raise ReplayError(
                f"Merkle verification failed for leaf {index}: "
                "stale or tampered metadata"
            )
