"""Spanning forest extraction from the decomposition algorithm.

The paper's footnote 1 notes that "a spanning forest algorithm can be
used to compute connected components"; this module implements the
converse — the decomposition-based connectivity algorithm naturally
*produces* a spanning forest, an extension beyond the paper's stated
scope:

* inside each decomposition partition, the BFS that grew it defines a
  tree rooted at the center (we re-derive the parents with one
  multi-source BFS over same-label edges — O(n + m));
* each tree edge of the recursively computed spanning forest of the
  contracted graph maps back to a *representative original edge* of
  the component adjacency it uses (carried by
  :class:`~repro.decomp.contract.Contraction`).

The levels come from
:func:`~repro.connectivity.decomp_cc.contraction_levels`, the same
downward pass decomp-CC runs, so the forest and the labeling share one
recursion, seeds included.

The union over all recursion levels is a spanning forest of the input:
per level, the intra-partition trees span each partition, and the
contracted forest connects partitions exactly as the contracted graph's
forest connects its vertices — acyclicity and edge count
(n − #components) follow inductively.

Same asymptotics as decomp-CC: O(m) expected work, O(log^3 n) depth
w.h.p.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.connectivity.decomp_cc import contraction_levels
from repro.connectivity.union_find import UnionFind
from repro.engine.core import TraversalEngine, TraversalState, end_round
from repro.engine.direction import AlwaysPush
from repro.errors import ParameterError, VerificationError
from repro.graphs.csr import CSRGraph
from repro.pram.cost import tracking
from repro.primitives.atomics import first_winner
from repro.runtime.context import current_context

__all__ = ["decomp_spanning_forest", "partition_parents", "verify_spanning_forest"]


class _PartitionParentState(TraversalState):
    """Multi-source same-label BFS rebuilding per-partition parent trees.

    Push-only: every center starts reached, and a round claims the
    unreached same-label neighbors of the frontier with an arbitrary
    first-winner rule (which neighbor wins parenthood is immaterial —
    any intra-partition BFS tree from the same roots is valid).
    """

    def __init__(self, graph: CSRGraph, labels: np.ndarray) -> None:
        self.graph = graph
        self.labels = labels
        self.tracker = current_context().tracker
        self.n = graph.num_vertices
        self.parents = np.full(self.n, -1, dtype=np.int64)
        self.reached = np.zeros(self.n, dtype=bool)
        self._frontier = np.zeros(0, dtype=np.int64)

    @property
    def frontier(self) -> np.ndarray:
        return self._frontier

    @property
    def done(self) -> bool:
        return self._frontier.size == 0

    @property
    def visited_count(self) -> int:
        return int(self.reached.sum())

    def shared_arrays(self):
        return {"parents": self.parents, "reached": self.reached}

    def initial_frontier(self) -> np.ndarray:
        centers = np.unique(self.labels)
        # Seeding write: distinct centers, before the first round window.
        self.reached[centers] = True
        self.tracker.add("scatter", work=float(centers.size), depth=1.0)
        return centers

    def begin_round(self, engine, next_frontier: np.ndarray) -> None:
        self._frontier = next_frontier

    def push_round(self, engine) -> np.ndarray:
        src, dst = self.graph.expand(self._frontier)
        same = self.labels[src] == self.labels[dst]
        fresh = same & ~self.reached[dst]
        self.tracker.add("gather", work=float(2 * dst.size), depth=1.0)
        if not fresh.any():
            # dead frontier: no claim and no barrier, the engine's next
            # begin_round sees the empty frontier and stops
            return np.zeros(0, dtype=np.int64)
        # arbitrary-CRCW: first claimer per target wins parenthood
        fresh_pos = np.flatnonzero(fresh)
        first, targets = first_winner(dst[fresh_pos])
        # Winner scatter: the stores hit only first_winner's sanctioned set.
        self.parents[targets] = src[fresh_pos[first]]
        self.reached[targets] = True
        end_round(packing="unit", tracker=self.tracker)
        return targets


def partition_parents(graph: CSRGraph, labels: np.ndarray) -> np.ndarray:
    """BFS-tree parent of each vertex within its decomposition partition.

    Multi-source BFS from all centers, restricted to same-label edges;
    centers (and isolated vertices) get parent -1.  This reconstructs
    the trees the decomposition's BFS's grew — any intra-partition BFS
    tree from the same roots is a valid choice, since the forest only
    needs *a* spanning tree per partition.  *labels* must have shape
    ``(n,)`` with values in ``[0, n)``; anything else raises
    :class:`~repro.errors.ParameterError` before any work is done.
    """
    labels = np.asarray(labels)
    n = graph.num_vertices
    if labels.shape != (n,):
        raise ParameterError(f"labels must have shape ({n},), got {labels.shape}")
    if n == 0:
        return np.full(0, -1, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= n:
        raise ParameterError(f"labels must lie in [0, {n})")
    state = _PartitionParentState(graph, labels)
    TraversalEngine(state, direction=AlwaysPush()).run()
    return state.parents


def decomp_spanning_forest(
    graph: CSRGraph,
    beta: float = 0.2,
    variant: str = "arb",
    seed: int = 1,
    schedule_mode: str = "permutation",
) -> Tuple[np.ndarray, np.ndarray]:
    """A spanning forest of *graph* via recursive decomposition.

    Returns ``(src, dst)`` arrays of undirected forest edges (each once,
    arbitrary orientation); ``len(src) == n - #components``.
    """
    # Chain of contractions: the level-l forest edges are component
    # pairs that must be pulled down through levels l-1, ..., 0.
    chain = []
    for current, dec, con in contraction_levels(
        graph, beta, variant, seed, schedule_mode
    ):
        # Intra-partition tree edges, in *current-level* vertex ids.
        parents = partition_parents(current, dec.labels)
        children = np.flatnonzero(parents >= 0)
        chain.append((children, parents[children], con))

    # Unwind: pull each level's forest edges down to original ids.
    # sub_edges holds the forest of the *contracted* graph at the
    # current level, as contracted-vertex pairs.
    sub_src = np.zeros(0, dtype=np.int64)
    sub_dst = np.zeros(0, dtype=np.int64)
    for children, parents_of, con in reversed(chain):
        level_src = [children]
        level_dst = [parents_of]
        if sub_src.size:
            # Contracted forest edges -> component pairs -> one
            # representative current-level edge each.
            comp_u = con.sub_to_component[sub_src]
            comp_v = con.sub_to_component[sub_dst]
            rep_u, rep_v = con.representative_edge(comp_u, comp_v)
            level_src.append(rep_u)
            level_dst.append(rep_v)
        sub_src = np.concatenate(level_src)
        sub_dst = np.concatenate(level_dst)
    return sub_src, sub_dst


def _contains(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of the *queries* present in *sorted_keys* (binary search)."""
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    at = np.searchsorted(sorted_keys, queries)
    np.minimum(at, sorted_keys.size - 1, out=at)
    return sorted_keys[at] == queries


def verify_spanning_forest(
    graph: CSRGraph, src: np.ndarray, dst: np.ndarray
) -> None:
    """Raise :class:`VerificationError` unless (src, dst) spans *graph*.

    Checks, in order: every forest edge is a real graph edge; the
    forest has n - c edges, c the graph's component count; and it is
    acyclic.  Together these make it span the graph: n - c acyclic
    edges form exactly c trees, and real edges keep each tree inside
    one component, so every component holds exactly one tree.  Like
    the labeling oracle it checks against, it charges no cost tracker.
    """
    from repro.analysis.verify import ground_truth_labels

    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise VerificationError("forest src/dst must have equal length")
    n = graph.num_vertices
    # Edges must exist in the graph, in either orientation: look the
    # packed (u, v) keys up among the graph's sorted keys.  Out-of-range
    # endpoints get key -1, which no graph edge has.
    edge_keys = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    edge_keys *= n
    edge_keys += graph.targets
    edge_keys.sort()
    in_range = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    real = _contains(edge_keys, np.where(in_range, src * n + dst, -1))
    real |= _contains(edge_keys, np.where(in_range, dst * n + src, -1))
    if not real.all():
        i = int(np.argmin(real))
        raise VerificationError(f"forest edge ({src[i]}, {dst[i]}) is not a graph edge")
    labels = ground_truth_labels(graph)
    num_components = int(labels.max()) + 1 if n else 0
    if src.size != n - num_components:
        raise VerificationError(
            f"forest has {src.size} edges; expected n - c = {n - num_components}"
        )
    # The union-find charges its allocation; a verifier's work is not
    # the algorithm's, so it lands in a throwaway tracker.
    with tracking():
        merged = UnionFind(n).union_edges(src, dst)
    if not merged.all():
        i = int(np.argmin(merged))
        raise VerificationError(f"forest edge ({src[i]}, {dst[i]}) closes a cycle")
