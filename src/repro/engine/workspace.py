"""The two backends' execution strategies for the round kernels.

A workspace holds only the operations whose NumPy execution differs
between the backends; everything else the kernels write inline.  Two
stateless implementations exist, one shared instance each:

* :class:`NullWorkspace` (:data:`NULL_WORKSPACE`) — the ``reference``
  execution: bounds-checked fancy indexing, and the CAS race resolved
  by sorting (``np.unique``).
* :class:`Workspace` (:data:`FAST_WORKSPACE`) — the ``fast``
  execution: unchecked ``mode="clip"`` gathers (every index stream
  here is generated in range by the kernels themselves), and the CAS
  race resolved by an O(n) reverse-order scatter or, for a sparse
  race, one packed-word sort.

Every method returns a fresh array.  Holding no state, one instance
serves any number of runs, concurrent ones included; a run reaches
its backend's through :attr:`~repro.engine.backend.ExecutionBackend.workspace`.

Workspaces are *cost-model invisible*: no method charges any (work,
depth).  The callers charge from sizes, so the backend choice changes
how the NumPy execution runs, not what the PRAM run costs — the parity
contract of :mod:`repro.engine.backend`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.primitives.atomics import unique_winners

__all__ = ["Workspace", "NullWorkspace", "NULL_WORKSPACE", "FAST_WORKSPACE"]

#: A race whose largest destination id exceeds this many times its
#: contender count resolves by sorting packed (dest, position) words:
#: there the O(max id) scan of the winner scatter costs more than the
#: sort (2-core x86-64 VM, ids up to 200k: 3k contenders 34 us sorted
#: against 112 us scanned, 60k 0.88 ms against 1.14 ms, 150k 2.2 ms
#: against 2.1 ms; ids up to 20k cross over at the same ratio).
_SPARSE_RACE_RATIO = 2

#: Races over at most this many ids always scatter: their mask stays in
#: cache, and the scatter's fixed cost (about 8 us) undercuts the sort's
#: (about 13 us); at 32k ids two contenders take 18 us scattered
#: against 13 us sorted.
_SCATTER_ALWAYS_IDS = 8192


class NullWorkspace:
    """Reference execution: the historical kernels' NumPy expressions."""

    def take(self, arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return arr[idx]

    def compress(self, mask: np.ndarray, arr: np.ndarray) -> np.ndarray:
        return arr[mask]

    def minimum_scatter(
        self, dest: np.ndarray, idx: np.ndarray, values: np.ndarray
    ) -> None:
        """One batch of priority-CRCW writeMins: ``dest[idx] min= values``.

        The execution seam of :func:`repro.primitives.atomics.write_min`
        (which owns the charging and the sanitizer seam).
        """
        np.minimum.at(dest, idx, values)

    def winner_scatter(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First occurrence per distinct value of *idx*, by sorting.

        The execution seam of :func:`repro.primitives.atomics.first_winner`
        (which owns the charging, the fault hook and the sanitizer
        seam): ``np.unique(idx, return_index=True)`` as
        ``(positions, dests)``.
        """
        return unique_winners(idx)


class Workspace(NullWorkspace):
    """Fast execution: unchecked gathers and a scatter-based CAS race."""

    def take(self, arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # mode="clip" selects NumPy's unchecked fast path (20-25 %
        # faster than fancy indexing at 1-2M indices, equal at 40k and
        # below).  Safe because every index stream here is internally
        # generated and in range; the reference path keeps the
        # bounds-checked gather.
        return arr.take(idx, mode="clip")

    def compress(self, mask: np.ndarray, arr: np.ndarray) -> np.ndarray:
        # A position scan plus the unchecked gather is about 4x faster
        # than boolean fancy indexing at 400k elements.
        return arr.take(mask.nonzero()[0], mode="clip")

    def winner_scatter(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First occurrence per distinct value of *idx*.

        A dense race scatters: a last-write-wins scatter of descending
        positions over the reversed stream leaves each destination
        holding its *first* position on the original stream, in
        O(n + max).  A sparse race (fewer contenders than half the
        largest id, over more than a cache-sized id range) sorts
        instead, which then costs less than scanning ``max`` cells: it
        packs each destination with its position into one int64 word,
        sorts the words by value and keeps the head of each run of
        equal destinations.  Both give the winner schedule
        ``np.unique(idx, return_index=True)`` produces.  A single
        contender wins without either.
        """
        m = idx.shape[0]
        if m == 1:
            return np.zeros(1, dtype=np.int64), idx.copy()
        bound = int(idx.max()) + 1
        if bound > _SCATTER_ALWAYS_IDS and m * _SPARSE_RACE_RATIO < bound:
            return _sort_race(idx, bound)
        return _scatter_race(idx, bound)


def _scatter_race(idx: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dense race: reverse-order scatter over ids ``[0, bound)``."""
    m = idx.shape[0]
    slots = np.empty(bound, dtype=np.int64)
    mask = np.zeros(bound, dtype=bool)
    slots[idx[::-1]] = np.arange(m - 1, -1, -1, dtype=np.int64)
    mask[idx] = True
    dests = mask.nonzero()[0]
    return slots[dests], dests


def _sort_race(idx: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse race: sort packed (dest, position) words, keep run heads."""
    m = idx.shape[0]
    b = (m - 1).bit_length()
    if (bound - 1).bit_length() + b > 63:
        # Ids too wide to pack beside a position.
        return unique_winners(idx)
    words = idx.astype(np.int64, copy=False) << b
    words |= np.arange(m, dtype=np.int64)
    words.sort()
    dests = words >> b
    heads = np.empty(m, dtype=bool)
    heads[0] = True
    np.not_equal(dests[1:], dests[:-1], out=heads[1:])
    winners = heads.nonzero()[0]
    positions = words.take(winners)
    positions &= (1 << b) - 1
    return positions, dests.take(winners)


#: The shared reference workspace.
NULL_WORKSPACE = NullWorkspace()

#: The shared fast workspace.
FAST_WORKSPACE = Workspace()

