"""Adjacency-array (CSR) graph representation.

The paper (§4) represents graphs "using the adjacency array format,
where we have an array of vertex offsets V into an array of edges E",
with each undirected edge stored in both directions, plus a degree
array D.  :class:`CSRGraph` is that structure: immutable offsets and
targets, with vectorized frontier-expansion helpers that the BFS and
decomposition kernels share.

Conventions
-----------
* ``offsets`` has length ``n + 1`` with ``offsets[n] == num_directed``
  (the paper's "we set V[n] = m" edge-case guard).
* For symmetric (undirected) graphs every edge (u, v) appears as both
  u->v and v->u; ``num_edges`` reports the undirected count
  ``num_directed / 2`` for symmetric graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.pram.cost import CostTracker, log_depth
from repro.runtime.context import current_context

__all__ = ["CSRGraph", "charge_expansion", "ragged_positions"]


def ragged_positions(
    starts: np.ndarray, counts: np.ndarray, total: Optional[int] = None
) -> np.ndarray:
    """Global positions of a ragged gather, laid out slice after slice.

    Slice ``i`` covers ``starts[i] .. starts[i] + counts[i] - 1``, and
    *total* is ``counts.sum()`` (read off the prefix sum when omitted):
    ``repeat(starts - excl_cumsum(counts), counts) + arange(total)``,
    with the shift and the add in place.
    """
    base = counts.cumsum()
    if total is None:
        total = int(base[-1]) if base.size else 0
    base -= counts
    np.subtract(starts, base, out=base)
    pos = base.repeat(counts)
    pos += np.arange(total, dtype=np.int64)
    return pos


def charge_expansion(tracker: CostTracker, vertices: int, edges: int) -> None:
    """Charge the PRAM cost of gathering *edges* out-edges of *vertices*.

    The frontier expansion's two steps: one gather of every edge target
    plus one degree read per vertex (unit depth), and the prefix sum
    over the vertices that lays out each one's output slice.  The
    frontier expansion and the filterEdges pass both charge through
    here, whatever NumPy execution they choose.
    """
    tracker.add("gather", work=float(edges + vertices), depth=1.0)
    tracker.add("scan", work=float(vertices), depth=log_depth(vertices))


@dataclass(frozen=True)
class CSRGraph:
    """An immutable graph in adjacency-array (CSR) form.

    Attributes
    ----------
    offsets:
        int64 array of length ``n + 1``; vertex ``i``'s outgoing edge
        targets are ``targets[offsets[i]:offsets[i+1]]``.
    targets:
        int64 array of edge targets, length = number of directed edges.
    symmetric:
        Declares that the directed edge set is symmetric (every (u, v)
        has its (v, u) mirror).  All connectivity algorithms require
        symmetric input; the builder produces it.
    """

    offsets: np.ndarray
    targets: np.ndarray
    symmetric: bool = True

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        targets = np.ascontiguousarray(self.targets, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "targets", targets)
        if offsets.ndim != 1 or targets.ndim != 1:
            raise GraphFormatError("offsets and targets must be 1-D arrays")
        if offsets.size < 1:
            raise GraphFormatError("offsets must have length n+1 >= 1")
        if offsets[0] != 0 or offsets[-1] != targets.size:
            raise GraphFormatError(
                "offsets must start at 0 and end at len(targets) "
                f"(got {offsets[0]}..{offsets[-1]}, m={targets.size})"
            )
        if np.any(np.diff(offsets) < 0):
            raise GraphFormatError("offsets must be non-decreasing")
        n = offsets.size - 1
        if targets.size and (targets.min() < 0 or targets.max() >= n):
            raise GraphFormatError("edge target out of range [0, n)")

    @classmethod
    def trusted(
        cls, offsets: np.ndarray, targets: np.ndarray, symmetric: bool = True
    ) -> "CSRGraph":
        """Construct without validation — internally generated CSR only.

        The contraction recursion builds each level's sub-graph from
        arrays whose invariants it just established (contiguous int64,
        offsets from a prefix sum, targets from a renaming into
        ``[0, k')``); re-running the O(m) scans of ``__post_init__``
        per level is pure wall-clock waste, which the fast execution
        backend skips through this path.  Public builders and anything
        consuming external data must go through the validating
        constructor.
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "offsets", offsets)
        object.__setattr__(graph, "targets", targets)
        object.__setattr__(graph, "symmetric", symmetric)
        return graph

    # -- sizes -------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_directed(self) -> int:
        """Number of directed edges (both orientations counted)."""
        return self.targets.size

    @property
    def num_edges(self) -> int:
        """Number of undirected edges for symmetric graphs, else directed."""
        return self.num_directed // 2 if self.symmetric else self.num_directed

    # -- per-vertex access ---------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of each vertex (the paper's D array, initial values).

        ``np.diff(offsets)``, computed once per instance, cached and
        marked read-only (the offsets are immutable by contract), so
        every traversal round reads its frontier's degrees with one
        gather.  Host-side bookkeeping — charges nothing.
        """
        cached = getattr(self, "_degrees", None)
        if cached is None:
            cached = np.diff(self.offsets)
            cached.flags.writeable = False
            object.__setattr__(self, "_degrees", cached)
        return cached

    @property
    def sorted_adjacency(self) -> bool:
        """Whether every adjacency list is strictly ascending.

        Then the directed edges in storage order are the pairs
        ``(u, v)`` in ascending order, each stored once, so an edge's
        place follows from its two endpoints.  Every
        :func:`~repro.graphs.builder.from_edges` build has it (its CSR
        comes from sorted, distinct packed keys); a
        :func:`~repro.graphs.builder.from_directed_edges` build keeps
        its lists in input order, so it has it only if they were given
        sorted and without repeats.  One pass over the targets,
        computed once per instance and cached.  Host-side bookkeeping —
        charges nothing.
        """
        cached = getattr(self, "_sorted_adjacency", None)
        if cached is None:
            targets, m = self.targets, self.targets.size
            rising = targets[1:] > targets[:-1]
            # A list may start anywhere below any target: exempt every
            # step from a list's last edge to the next list's first.
            starts = self.offsets[1:-1]
            rising[starts[(starts > 0) & (starts < m)] - 1] = True
            cached = bool(rising.all())
            object.__setattr__(self, "_sorted_adjacency", cached)
        return cached

    def neighbors(self, v: int) -> np.ndarray:
        """Targets of vertex *v*'s outgoing edges (a view, do not mutate)."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield directed edges (u, v); test/diagnostic use only."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                yield u, int(v)

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """All directed edges as ``(sources, targets)`` arrays."""
        current_context().tracker.add("scan", work=float(self.num_directed), depth=1.0)
        sources = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.degrees
        )
        return sources, self.targets.copy()

    # -- frontier expansion --------------------------------------------------

    def expand_targets(
        self,
        frontier: np.ndarray,
        charge_cost: bool = True,
        workspace=None,
        tracker: Optional[CostTracker] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather the out-edge targets of every frontier vertex, vectorized.

        Returns ``(counts, edge_targets)``: ``counts[i]`` is the degree
        of ``frontier[i]`` and ``edge_targets`` lists the neighbors of
        each frontier vertex in turn, in adjacency order.  This one
        gather is the PRAM round body shared by BFS and both
        decompositions; it costs O(sum of frontier degrees) work and
        O(log n) depth (the prefix sum computing per-vertex output
        offsets — the paper's "packing the frontiers").  Kernels that
        need the source of only a few edges recover it from *counts*
        instead of materializing :meth:`expand`'s source stream.

        *frontier* is an int64 vertex-id array.  *workspace* is the
        backend's gather strategy (see :mod:`repro.engine.workspace`);
        without one the targets are gathered by fancy indexing.  The
        result is always a fresh array.

        The charges go to *tracker*, or to the active context's when it
        is ``None``.  ``charge_cost=False`` suppresses them — used by
        the read-based (bottom-up) sweeps, which on a real machine exit
        each adjacency list early and charge only the edges actually
        examined (they account for those themselves).
        """
        size = frontier.size
        if size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        starts = self.offsets.take(frontier)
        counts = self.degrees.take(frontier)
        pos = ragged_positions(starts, counts)
        if charge_cost:
            if tracker is None:
                tracker = current_context().tracker
            charge_expansion(tracker, size, pos.size)
        if workspace is None:
            edge_targets = self.targets[pos]
        else:
            edge_targets = workspace.take(self.targets, pos)
        return counts, edge_targets

    def expand(
        self,
        frontier: np.ndarray,
        charge_cost: bool = True,
        workspace=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather the out-edges of every frontier vertex, vectorized.

        Returns ``(edge_sources, edge_targets)`` where position ``j``
        describes one directed edge out of the frontier:
        ``edge_sources[j]`` is the frontier vertex and
        ``edge_targets[j]`` its neighbor.  :meth:`expand_targets` plus
        the source stream; it charges and allocates as that method
        describes.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        counts, edge_targets = self.expand_targets(frontier, charge_cost, workspace)
        return np.repeat(frontier, counts), edge_targets

    # -- misc ------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of the graph (memo keys in the session layer).

        SHA-256 over the CSR arrays and the symmetry flag, computed
        once per instance and cached (the arrays are immutable by
        contract).  Host-side bookkeeping — charges nothing.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            digest = hashlib.sha256()
            digest.update(b"csr:%d:%d" % (self.num_vertices, self.num_directed))
            digest.update(self.offsets.tobytes())
            digest.update(self.targets.tobytes())
            digest.update(b"sym" if self.symmetric else b"dir")
            cached = digest.hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def check_symmetric(self) -> bool:
        """Verify the directed edge set is symmetric (O(m log m); tests)."""
        src, dst = self.edge_array()
        fwd = np.sort(src * np.int64(self.num_vertices) + dst)
        rev = np.sort(dst * np.int64(self.num_vertices) + src)
        return bool(np.array_equal(fwd, rev))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sym = "symmetric" if self.symmetric else "directed"
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges} "
            f"undirected, {sym})"
        )
