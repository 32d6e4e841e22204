"""Phase-concurrent linear-probing hash table (Shun-Blelloch, SPAA 2014).

The paper removes duplicate inter-component edges during contraction
"using a parallel hash table [55]" — the phase-concurrent linear
probing table of Shun and Blelloch, in its insert-only phase.  This
module implements that table with the synchronous-round execution style
used throughout the package:

Each round, every still-unplaced key computes its current probe slot;
concurrent claims on a slot resolve by arbitrary-CRCW (first winner);
a key finding its own value already in a slot retires as a duplicate;
a key finding a different value moves to the next slot (linear probe).
With a table at most half full, the expected number of rounds is O(1)
and O(log n) w.h.p. — mirroring the real table's probe-length bounds.

Only the operations the reproduction needs are exposed: bulk
deduplication of non-negative int64 keys (:func:`dedup`) and the
underlying :class:`HashTable` for tests and reuse.
"""

from __future__ import annotations


import numpy as np

from repro.errors import ConvergenceError
from repro.primitives.atomics import first_winner
from repro.primitives.rand import splitmix64
from repro.runtime.context import current_context

__all__ = ["HashTable", "dedup"]

_EMPTY = np.int64(-1)
#: Probe-round budget: linear probing in a <=50%-loaded table finishes in
#: O(log n) rounds w.h.p.; this is far above that for any feasible n.
_MAX_ROUNDS_FACTOR = 64


def _table_size(n: int) -> int:
    """Smallest power of two >= 2n (load factor <= 0.5), minimum 16."""
    if n <= 8:
        return 16
    return 1 << (2 * n - 1).bit_length()


class HashTable:
    """Insert-only phase-concurrent hash table over non-negative int64 keys.

    Parameters
    ----------
    capacity:
        Maximum number of distinct keys that will be inserted.  The
        backing array is sized to keep load factor <= 0.5.
    seed:
        Seed for the (splitmix64) hash function.
    """

    def __init__(self, capacity: int, seed: int = 0x5EED) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.size = _table_size(max(capacity, 1))
        self._mask = np.uint64(self.size - 1)
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.slots = np.full(self.size, _EMPTY, dtype=np.int64)
        current_context().tracker.add("alloc", work=float(self.size), depth=1.0)
        self._workspace = current_context().backend.workspace

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        """Initial probe slots: ``splitmix64(keys ^ seed) & mask``."""
        h = splitmix64(keys.astype(np.uint64) ^ self._seed)
        return (h & self._mask).astype(np.int64)

    def insert(self, keys: np.ndarray) -> np.ndarray:
        """Insert *keys*; returns a bool mask of which were newly inserted.

        Duplicate keys (within the batch or against prior inserts) get
        ``False``.  All keys must be non-negative (``-1`` is the empty
        sentinel).
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        if keys.min() < 0:
            raise ValueError("hash table keys must be non-negative")

        inserted = np.zeros(keys.shape[0], dtype=bool)
        pending = np.arange(keys.shape[0], dtype=np.int64)
        slot = self._hash(keys)
        max_rounds = _MAX_ROUNDS_FACTOR * max(
            1, int(np.ceil(np.log2(self.size + 1)))
        )
        # Context lookups cached once per insert (round granularity);
        # the probe loop passes them straight into the primitives.
        tracker = current_context().tracker
        plan = current_context().fault_plan
        ws = self._workspace
        for _ in range(max_rounds):
            if pending.size == 0:
                return inserted
            cur_slot = slot[pending]
            occupant = self.slots[cur_slot]
            tracker.add("hash", work=float(pending.size), depth=1.0)

            # Keys whose slot already holds their value retire (duplicate).
            dup = occupant == keys[pending]
            # Keys whose slot is empty race to claim it.
            empty = occupant == _EMPTY
            claimers = pending[empty]
            if claimers.size:
                win_pos, win_slots = first_winner(
                    cur_slot[empty], workspace=ws, tracker=tracker, plan=plan
                )
                winners = claimers[win_pos]
                self.slots[win_slots] = keys[winners]
                inserted[winners] = True
                won = np.zeros(keys.shape[0], dtype=bool)
                won[winners] = True
                # Losers of the race re-read the slot next round: if the
                # winner holds their key they will retire as duplicates,
                # otherwise they probe onward.  Keeping them at the same
                # slot for one more round reproduces the CAS-failure
                # retry of the real table.
                retry_same = empty & ~won[pending]
            else:
                retry_same = np.zeros(pending.size, dtype=bool)

            # Keys blocked by a different occupant probe the next slot.
            move_on = ~dup & ~empty
            slot[pending[move_on]] = (slot[pending[move_on]] + 1) % self.size

            keep = (move_on | retry_same) & ~dup
            pending = pending[keep]
        raise ConvergenceError(
            "hash table insert exceeded probe-round budget "
            f"(size={self.size}, capacity={self.capacity})"
        )

    def contents(self) -> np.ndarray:
        """All stored keys, in arbitrary (slot) order."""
        current_context().tracker.add("scan", work=float(self.size), depth=1.0)
        return self.slots[self.slots != _EMPTY]


def dedup(keys: np.ndarray, seed: int = 0x5EED) -> np.ndarray:
    """Distinct values of *keys* (non-negative int64), arbitrary order.

    The contraction phase's duplicate-edge removal: each undirected
    inter-component edge is encoded as one int64 key and inserted; the
    table's survivors are the deduplicated edge set.  O(n) expected
    work, O(log n) depth w.h.p.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return keys.copy()
    table = HashTable(capacity=keys.size, seed=seed)
    table.insert(keys)
    return table.contents()
