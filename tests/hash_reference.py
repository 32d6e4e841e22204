"""The full-stream hash-table insert, kept as the reference for tests.

:meth:`repro.primitives.hashing.HashTable.insert` probes once per
distinct key and charges per copy.  This is the insert it replaced:
one simulated processor per key *copy*, every copy probing, every
claiming copy on the race stream.  The grouped insert must reproduce
its inserted mask, its table, every charge, the race winners, the
fault plan's draws and the sanitizer's checks exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.pram.cost import log_depth
from repro.primitives.atomics import first_winner
from repro.primitives.hashing import HashTable
from repro.runtime.context import current_context

__all__ = ["full_stream_insert"]


def full_stream_insert(
    table: HashTable,
    keys: np.ndarray,
    trace: Optional[Dict[str, List[np.ndarray]]] = None,
) -> np.ndarray:
    """Insert *keys* into *table* one copy per processor; the inserted mask.

    With a *trace* dict, each round appends the stream indices of its
    pending copies to ``trace["pending"]`` and of its claiming copies to
    ``trace["claiming"]``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return np.zeros(0, dtype=bool)
    if keys.min() < 0:
        raise ValueError("hash table keys must be non-negative")
    inserted = np.zeros(keys.shape[0], dtype=bool)
    pending = np.arange(keys.shape[0], dtype=np.int64)
    slot = table._hash(keys)
    tracker = current_context().tracker
    plan = current_context().fault_plan
    for _ in range(64 * int(log_depth(table.size))):
        if pending.size == 0:
            return inserted
        cur_slot = slot[pending]
        occupant = table.slots[cur_slot]
        tracker.add("hash", work=float(pending.size), depth=1.0)
        dup = occupant == keys[pending] + 1
        empty = occupant == 0
        claimers = pending[empty]
        if trace is not None:
            trace.setdefault("pending", []).append(pending)
            trace.setdefault("claiming", []).append(claimers)
        if claimers.size:
            win_pos, win_slots = first_winner(
                cur_slot[empty], workspace=table._workspace, tracker=tracker, plan=plan
            )
            winners = claimers[win_pos]
            table.slots[win_slots] = keys[winners] + 1
            inserted[winners] = True
            won = np.zeros(keys.shape[0], dtype=bool)
            won[winners] = True
            retry_same = empty & ~won[pending]
        else:
            retry_same = np.zeros(pending.size, dtype=bool)
        move_on = ~dup & ~empty
        slot[pending[move_on]] = (slot[pending[move_on]] + 1) % table.size
        pending = pending[(move_on | retry_same) & ~dup]
    raise ConvergenceError("hash table insert exceeded probe-round budget")
