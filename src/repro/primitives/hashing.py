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

The copies of one key probe in lockstep: they hash to one slot, see
one occupant and so move, claim and retire together.  The simulation
therefore probes once per *distinct* key (:func:`group_keys` finds
them) and charges per copy, as the PRAM runs one processor per copy.
Contraction's inter-edges repeat a few label pairs up to millions of
times, so the host work follows the distinct pairs, not the kept edges.

Only the operations the reproduction needs are exposed: bulk
deduplication of non-negative int64 keys (:func:`dedup`), the
underlying :class:`HashTable` and the grouping it probes by.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.pram.cost import log_depth
from repro.primitives.atomics import first_winner
from repro.primitives.rand import splitmix64
from repro.primitives.sort import packed_argsort
from repro.runtime.context import current_context

__all__ = ["HashTable", "KeyGroups", "dedup", "group_keys"]

#: Probe-round budget: linear probing in a <=50%-loaded table finishes in
#: O(log n) rounds w.h.p.; this is far above that for any feasible n.
_MAX_ROUNDS_FACTOR = 64

#: :func:`group_keys` histograms a stream whose key domain ``[0,
#: max_key]`` is at most 1/this of its length, and sorts it otherwise.
#: Timed on uniform keys (2-core x86-64 VM, numpy 2.4): over 675k keys
#: the histogram took 8-17 ms at domains of 1/64 to 1/4 of the stream
#: against 25-37 ms sorted, 35 against 45 ms at 1/2, and 58 against
#: 55 ms at 1; at 40k and 4k keys it crossed over between 1/2 and 1.
_HISTOGRAM_RATIO = 2


def _table_size(n: int) -> int:
    """Smallest power of two >= 2n (load factor <= 0.5), minimum 16."""
    if n <= 8:
        return 16
    return 1 << (2 * n - 1).bit_length()


class KeyGroups(NamedTuple):
    """The distinct values of a key stream and where their copies sit.

    ``keys`` ascending; ``first`` / ``last`` the stream index of each
    one's first and last copy; ``copies`` how many it has.  ``by_first``
    lists the groups in order of ``first`` (the stream order of their
    first copies), or is None when every key is distinct: then that
    order is the stream itself.
    """

    keys: np.ndarray
    first: np.ndarray
    last: np.ndarray
    copies: np.ndarray
    by_first: Optional[np.ndarray]


def group_keys(keys: np.ndarray, max_key: int) -> KeyGroups:
    """Group non-negative int64 *keys* ``<= max_key`` by value.

    One pass over the stream.  A domain small next to the stream
    (:data:`_HISTOGRAM_RATIO`) is histogrammed: a count per value and
    two last-write-wins scatters of the stream positions, reversed for
    the first copy.  Otherwise the stream is sorted stably (the fast
    backend's :func:`~repro.primitives.sort.packed_argsort`, the
    reference's ``np.argsort``; the permutation is the same) and each
    run of equal keys is one group, whose first and last members are
    its first and last copies.  Uncharged host execution: the caller
    charges what the PRAM does with the groups.
    """
    n = keys.shape[0]
    if (max_key + 1) * _HISTOGRAM_RATIO <= n:
        counts = np.bincount(keys, minlength=max_key + 1)
        distinct = counts.nonzero()[0]
        positions = np.arange(n, dtype=np.int64)
        first = np.empty(max_key + 1, dtype=np.int64)
        first[keys[::-1]] = positions[::-1]
        last = np.empty(max_key + 1, dtype=np.int64)
        last[keys] = positions
        first = first.take(distinct)
        return KeyGroups(
            distinct,
            first,
            last.take(distinct),
            counts.take(distinct),
            first.argsort(),
        )
    if current_context().backend.optimized:
        order = packed_argsort(keys, max_key=max_key)
    else:
        order = np.argsort(keys, kind="stable")
    ordered = keys.take(order)
    head = np.empty(n, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    if head.all():
        ones = np.broadcast_to(np.int64(1), (n,))
        return KeyGroups(ordered, order, order, ones, None)
    starts = head.nonzero()[0]
    ends = np.append(starts[1:], n)
    first = order.take(starts)
    # Mark each group's first copy in the stream; reading the marks in
    # stream order lists the groups by first copy.
    rank = np.full(n, -1, dtype=np.int64)
    rank[first] = np.arange(starts.size, dtype=np.int64)
    return KeyGroups(
        ordered.take(starts),
        first,
        order.take(ends - 1),
        ends - starts,
        rank[rank >= 0],
    )


class HashTable:
    """Insert-only phase-concurrent hash table over non-negative int64 keys.

    A cell holds its key plus one, so an empty cell reads zero: the
    table is a zeroed allocation whose pages the host touches only
    where a key probes.

    Parameters
    ----------
    capacity:
        Maximum number of keys that will be inserted, copies counted.
        The backing array is sized to keep load factor <= 0.5.
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
        self.slots = np.zeros(self.size, dtype=np.int64)
        current_context().tracker.add("alloc", work=float(self.size), depth=1.0)
        self._workspace = current_context().backend.workspace

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        """Initial probe slots: ``splitmix64(keys ^ seed) & mask``."""
        h = splitmix64(keys.astype(np.uint64) ^ self._seed)
        return (h & self._mask).astype(np.int64)

    def insert(
        self, keys: np.ndarray, groups: Optional[KeyGroups] = None
    ) -> np.ndarray:
        """Insert *keys*; returns a bool mask of which were newly inserted.

        Duplicate keys (within the batch or against prior inserts) get
        ``False``.  All keys must be non-negative and below the int64
        maximum.  *groups* is :func:`group_keys` of *keys*, for callers
        that grouped them already; otherwise the insert groups them.

        Each round probes once per distinct pending key and charges a
        ``hash`` per pending copy and an ``atomic`` per copy claiming an
        empty slot, the full stream's charge.  The race runs on a stream
        that holds each claiming key's first copy, and its last copy
        when it has more than one, in stream order.  Those are the
        first and last contenders for each slot in the full stream, so
        :func:`~repro.primitives.atomics.first_winner` picks the same
        winners, a ``cas_flip`` flips to the same last contenders, and
        the sanitizer sees the same schedule.  A key's copies that lost
        to another key's copy probe on together; a winner's other
        copies find it in the slot next round and retire.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)
        if keys.min() < 0:
            raise ValueError("hash table keys must be non-negative")
        if groups is None:
            high = int(keys.max())
            if high == np.iinfo(np.int64).max:
                raise ValueError("hash table keys must be below the int64 maximum")
            groups = group_keys(keys, high)

        # The distinct keys in stream order of their first copies: the
        # order their claims appear in on the full stream.  Without
        # repeats that is the stream, and each key is its own copy.
        order = groups.by_first
        runs: Optional[KeyGroups] = None
        if order is None:
            key = keys
        else:
            runs = KeyGroups(
                groups.keys.take(order),
                groups.first.take(order),
                groups.last.take(order),
                groups.copies.take(order),
                None,
            )
            key = runs.keys
        cell = key + 1
        slot = self._hash(key)
        inserted = np.zeros(n, dtype=bool)
        pending = np.arange(key.shape[0], dtype=np.int64)
        max_rounds = _MAX_ROUNDS_FACTOR * int(log_depth(self.size))
        # Context lookups cached once per insert (round granularity);
        # the probe loop passes them straight into the primitives.
        tracker = current_context().tracker
        plan = current_context().fault_plan
        ws = self._workspace
        for _ in range(max_rounds):
            if pending.size == 0:
                return inserted
            cur_slot = slot.take(pending)
            occupant = self.slots.take(cur_slot)
            if runs is None:
                probing = pending.size
            else:
                probing = int(runs.copies.take(pending).sum())
            tracker.add("hash", work=float(probing), depth=1.0)

            # Keys whose slot already holds their value retire (duplicate).
            dup = occupant == cell.take(pending)
            # Keys whose slot is empty race to claim it.
            empty = occupant == 0
            claimers = pending[empty]
            if claimers.size:
                if runs is None:
                    owner, index = claimers, claimers
                    race = cur_slot[empty]
                else:
                    claiming = runs.copies.take(claimers)
                    claim_copies = int(claiming.sum())
                    many = claimers[claiming > 1]
                    owner, index = claimers, runs.first.take(claimers)
                    if many.size:
                        index = np.concatenate((index, runs.last.take(many)))
                        owner = np.concatenate((claimers, many))
                        merged = index.argsort()
                        index, owner = index.take(merged), owner.take(merged)
                    race = slot.take(owner)
                win_pos, win_slots = first_winner(
                    race, workspace=ws, tracker=tracker, plan=plan
                )
                if runs is not None and claim_copies > race.size:
                    # The copies the race stream stands for claim too.
                    tracker.add(
                        "atomic", work=float(claim_copies - race.size), depth=0.0
                    )
                winners = owner.take(win_pos)
                self.slots[win_slots] = cell.take(winners)
                inserted[index.take(win_pos)] = True
                # Losers of the race re-read the slot next round: if the
                # winner holds their key they will retire as duplicates,
                # otherwise they probe onward.  Keeping them at the same
                # slot for one more round reproduces the CAS-failure
                # retry of the real table.
                if runs is None:
                    won = np.zeros(key.shape[0], dtype=bool)
                    won[winners] = True
                    retry_same = empty & ~won.take(pending)
                else:
                    runs.copies[winners] -= 1
                    retry_same = empty & (runs.copies.take(pending) > 0)
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
        return self.slots[self.slots != 0] - 1


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
