"""Per-run buffer arenas for the round kernels.

The round kernels are written once against a small workspace
vocabulary (``take``, ``compress``, ``equal``, ``repeat`` ...).  Two
implementations exist:

* :class:`NullWorkspace` — the ``reference`` execution: every request
  is a fresh NumPy allocation computed exactly as the historical
  kernels computed it.  A stateless singleton (:data:`NULL_WORKSPACE`).
* :class:`Workspace` — the ``fast`` execution: requests return views
  into named, lazily allocated, geometrically grown arena buffers and
  the operations write into them with ``out=``.  After the first few
  rounds of a run the arena reaches steady state and the round-kernel
  temporaries stop allocating — except where NumPy's fused one-pass
  primitives (``np.repeat``, ``nonzero``, fancy extraction) beat
  any multi-pass arena reformulation; those keep their fresh outputs,
  because the goal is wall clock, not allocation count.

A buffer view for a key is valid until the next request for the same
key, which is exactly one round in every kernel (each call site owns
its key).  Anything that outlives the round — next frontiers, kept
inter-edge chunks, winner arrays — is produced as a fresh array by the
kernels, never as an arena view.

Workspaces are *cost-model invisible*: no method charges any (work,
depth).  The simulated machine's allocations were always charged where
the algorithm conceptually allocates (``alloc`` kind at run setup);
reusing real memory across rounds changes how the NumPy execution
runs, not what the PRAM run costs — the parity contract of
:mod:`repro.engine.backend`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple, Union

import numpy as np

from repro.primitives.atomics import unique_winners
from repro.primitives.rand import splitmix64

if TYPE_CHECKING:
    from numpy.typing import DTypeLike

    from repro.engine.backend import ExecutionBackend

__all__ = ["Workspace", "NullWorkspace", "NULL_WORKSPACE", "make_workspace"]

_MIN_CAPACITY = 16

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


def _grown(size: int) -> int:
    """Geometric capacity for a requested view length."""
    return max(_MIN_CAPACITY, 1 << int(max(size, 1) - 1).bit_length())


class NullWorkspace:
    """Reference execution: every operation is a fresh allocation.

    Each method reproduces the historical kernels' NumPy expression
    byte-for-byte, so running the kernels through a ``NullWorkspace``
    *is* running the pre-backend code.
    """

    def take(self, arr: np.ndarray, idx: np.ndarray, key: str) -> np.ndarray:
        return arr[idx]

    def compress(self, mask: np.ndarray, arr: np.ndarray, key: str) -> np.ndarray:
        return arr[mask]

    def equal(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        return a == b

    def not_equal(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        return a != b

    def logical_not(self, a: np.ndarray, key: str) -> np.ndarray:
        return ~a

    def sub(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        return a - b

    def as_float(self, a: np.ndarray, key: str) -> np.ndarray:
        return a.astype(np.float64)

    def falses(self, key: str, size: int) -> np.ndarray:
        return np.zeros(size, dtype=bool)

    def exclusive_cumsum(self, a: np.ndarray, key: str) -> np.ndarray:
        if a.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(([0], np.cumsum(a)[:-1]))

    def repeat(
        self, values: np.ndarray, counts: np.ndarray, total: int, key: str
    ) -> np.ndarray:
        return np.repeat(values, counts)

    def ragged_positions(
        self, starts: np.ndarray, counts: np.ndarray, total: int, key: str
    ) -> np.ndarray:
        pos = np.repeat(
            starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        return pos + np.arange(total, dtype=np.int64)

    def hash_slots(
        self, keys: np.ndarray, seed: np.uint64, mask: np.uint64, key: str
    ) -> np.ndarray:
        """Initial probe slots: ``splitmix64(keys ^ seed) & mask``.

        The hash table's per-batch slot computation.  Always a fresh
        array — the table mutates slots as the probe loop advances.
        """
        h = splitmix64(keys.astype(np.uint64) ^ seed)
        return (h & mask).astype(np.int64)

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


#: The shared stateless reference workspace.
NULL_WORKSPACE = NullWorkspace()


class Workspace(NullWorkspace):
    """Fast execution: named, reused, geometrically grown arena buffers.

    Parameters
    ----------
    num_vertices:
        The run's vertex universe — a sizing hint only; buffers are
        allocated lazily at the sizes the rounds actually need.
    """

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        self._buffers: Dict[str, np.ndarray] = {}
        self._iota_buf = np.zeros(0, dtype=np.int64)

    # -- arena management --------------------------------------------------

    def _buf(self, key: str, size: int, dtype: "DTypeLike") -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < size:
            buf = np.empty(_grown(size), dtype=dtype)
            self._buffers[key] = buf
        return buf[:size]

    def _zeroed_bool(self, key: str, size: int) -> np.ndarray:
        # Invariant: this buffer is all-False between uses (users reset
        # exactly the entries they set), so growth is the only zeroing.
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < size:
            buf = np.zeros(_grown(size), dtype=bool)
            self._buffers[key] = buf
        return buf[:size]

    def _iota(self, size: int) -> np.ndarray:
        if self._iota_buf.shape[0] < size:
            self._iota_buf = np.arange(_grown(size), dtype=np.int64)
        return self._iota_buf[:size]

    # -- the kernel vocabulary ---------------------------------------------

    def take(self, arr: np.ndarray, idx: np.ndarray, key: str) -> np.ndarray:
        # mode="clip" selects NumPy's unchecked fast path (measurably
        # faster than both mode="raise" and fancy indexing).  Safe
        # because every index stream here is internally generated and
        # in range; the reference path keeps the bounds-checked gather.
        # The ndarray methods skip the np.* wrappers' dispatch, which
        # costs about as much as the gather itself on small rounds.
        out = self._buf(key, idx.shape[0], arr.dtype)
        arr.take(idx, out=out, mode="clip")
        return out

    def compress(self, mask: np.ndarray, arr: np.ndarray, key: str) -> np.ndarray:
        # A position scan + unchecked take beats both boolean fancy
        # indexing and np.compress(out=) — the mask-walking loop inside
        # compress is slower than one fused position scan plus a gather.
        pos = mask.nonzero()[0]
        out = self._buf(key, pos.shape[0], arr.dtype)
        arr.take(pos, out=out, mode="clip")
        return out

    def equal(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        out = self._buf(key, a.shape[0], np.bool_)
        np.equal(a, b, out=out)
        return out

    def not_equal(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        out = self._buf(key, a.shape[0], np.bool_)
        np.not_equal(a, b, out=out)
        return out

    def logical_not(self, a: np.ndarray, key: str) -> np.ndarray:
        out = self._buf(key, a.shape[0], np.bool_)
        np.logical_not(a, out=out)
        return out

    def sub(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        out = self._buf(key, a.shape[0], a.dtype)
        np.subtract(a, b, out=out)
        return out

    def as_float(self, a: np.ndarray, key: str) -> np.ndarray:
        out = self._buf(key, a.shape[0], np.float64)
        out[:] = a
        return out

    def falses(self, key: str, size: int) -> np.ndarray:
        out = self._buf(key, size, np.bool_)
        out.fill(False)
        return out

    def exclusive_cumsum(self, a: np.ndarray, key: str) -> np.ndarray:
        n = a.shape[0]
        out = self._buf(key, n, np.int64)
        if n:
            out[0] = 0
            np.cumsum(a[:-1], out=out[1:])
        return out

    # ``repeat`` is deliberately NOT overridden: ``np.repeat`` is one
    # fused C pass, and every arena reformulation (scatter boundary
    # deltas + in-place cumsum) costs three memory passes — measured
    # 2-3x slower at every scale.  The workspace optimizes where reuse
    # actually wins wall-clock, not allocation counts for their own sake.

    def ragged_positions(
        self, starts: np.ndarray, counts: np.ndarray, total: int, key: str
    ) -> np.ndarray:
        """Global gather positions of a ragged expansion.

        Same ``repeat(starts - excl_cumsum(counts), counts) +
        arange(total)`` computation as the reference, but the exclusive
        cumsum lands in an arena buffer, the iota comes from the cached
        ascending buffer instead of a per-round ``arange``, and the add
        runs in place over ``np.repeat``'s output — one temporary and
        two fewer passes per round.
        """
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        base = self.exclusive_cumsum(counts, key + "#base")
        np.subtract(starts, base, out=base)
        pos = np.repeat(base, counts)
        np.add(pos, self._iota(total), out=pos)
        return pos

    # -- CAS-race resolution -----------------------------------------------

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
        contender wins without either.  Returns fresh
        ``(positions, dests)`` arrays (they outlive the round as the
        next frontier).
        """
        m = idx.shape[0]
        if m == 1:
            return self._iota(1).copy(), idx.copy()
        bound = int(idx.max()) + 1
        if bound > _SCATTER_ALWAYS_IDS and m * _SPARSE_RACE_RATIO < bound:
            b = (m - 1).bit_length()
            if (bound - 1).bit_length() + b > 63:
                # Ids too wide to pack beside a position.
                return super().winner_scatter(idx)
            words = idx.astype(np.int64, copy=False) << b
            words |= self._iota(m)
            words.sort()
            dests = words >> b
            heads = self._buf("winner#heads", m, np.bool_)
            heads[0] = True
            np.not_equal(dests[1:], dests[:-1], out=heads[1:])
            winners = heads.nonzero()[0]
            positions = words.take(winners)
            positions &= (1 << b) - 1
            return positions, dests.take(winners)
        slots = self._buf("winner#slots", bound, np.int64)
        mask = self._zeroed_bool("winner#mask", bound)
        slots[idx[::-1]] = self._iota(m)[::-1]
        mask[idx] = True
        dests = mask.nonzero()[0]
        mask[dests] = False
        positions = slots[dests]
        return positions, dests


def make_workspace(
    backend: "ExecutionBackend", num_vertices: int
) -> Union[Workspace, NullWorkspace]:
    """The workspace a run should thread through its kernels."""
    if backend.optimized:
        return Workspace(num_vertices)
    return NULL_WORKSPACE
