"""Direction policies: push (write-based) vs. pull (read-based) rounds.

Beamer's direction-optimizing insight: when the frontier is large, it
is cheaper to run a level *backwards* — every unvisited vertex scans
its own adjacency list for a frontier neighbor and exits early — than
to expand the frontier's out-edges.  The engine makes the decision a
pluggable per-round policy:

* :class:`AlwaysPush` — classic level-synchronous traversal.
* :class:`FractionHybrid` — the paper's 20 %-of-vertices rule, used by
  Decomp-Arb-Hybrid and Decomp-Min-Hybrid.
* :class:`LigraEdgeHybrid` — Ligra's edge-count heuristic
  (frontier out-degree + size vs. (m + n)/20), used by hybrid-BFS-CC
  and multistep-CC.

Both hybrids take their threshold from :data:`DENSE_THRESHOLD`, the
paper's 20 %, unless a caller passes another.

A policy sees the engine, the state, and the *claimed* frontier size
(last round's winners, before any center seeding — the decomposition's
switch deliberately excludes fresh centers; see decomp_arb_hybrid's
history for why).  ``sparse_phase`` is the CostTracker phase label a
push round runs under for states that track phases (``bfsMain`` for
pure push decomposition, ``bfsSparse`` for the hybrids).

A custom rule is a plain :class:`DirectionPolicy` subclass passed to
the engine as an instance; see ``docs/api.md`` for a worked example.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ParameterError

if TYPE_CHECKING:
    from repro.engine.core import TraversalEngine, TraversalState
    from repro.graphs.csr import CSRGraph

__all__ = [
    "DirectionPolicy",
    "AlwaysPush",
    "FractionHybrid",
    "LigraEdgeHybrid",
    "DENSE_THRESHOLD",
]

#: The paper's dense-switch fraction.
DENSE_THRESHOLD = 0.20


def _check_threshold(threshold: float) -> None:
    """Reject a NaN or negative dense-switch threshold.

    Values above 1 stay legal: they mean "never pull".
    """
    if not threshold >= 0:  # also False for NaN
        raise ParameterError(
            f"dense_threshold must be a non-negative number, got {threshold}"
        )


class DirectionPolicy:
    """Per-round choice between the push and pull kernels."""

    #: Phase label for push rounds of phase-tracking states (or None).
    sparse_phase: Optional[str] = None

    def go_dense(
        self,
        engine: "TraversalEngine",
        state: "TraversalState",
        claimed: int,
    ) -> bool:
        """True to run this round read-based (pull)."""
        raise NotImplementedError


class AlwaysPush(DirectionPolicy):
    """Every round write-based: the classic level-synchronous loop."""

    def __init__(self, sparse_phase: Optional[str] = None) -> None:
        self.sparse_phase = sparse_phase

    def go_dense(
        self,
        engine: "TraversalEngine",
        state: "TraversalState",
        claimed: int,
    ) -> bool:
        return False


class FractionHybrid(DirectionPolicy):
    """The paper's rule: pull when claimed > threshold * n.

    Matches §4's "fraction of vertices on the frontier is greater than
    20%": the claimed frontier is compared with all n vertices, not
    with the unvisited ones, guarded by "someone is left to pull" —
    once every vertex is visited the remaining drain rounds run
    write-based.  They race nothing, but a push round still expands
    every frontier edge to classify it: on ``orkut_like(30_000,
    76.0)`` one drain round expanded up to 48 % of the 2.09M directed
    edges, and drain rounds took 8-12 % of the host time of 160
    Decomp-Arb-Hybrid runs.  A Decomp-Arb drain round skips that
    expansion (:func:`~repro.engine.kernels.arb_round`) on a level that
    ends in one partition, where it keeps nothing, and on a level that
    ran a dense round, where it classifies its frontier off the CSR
    stream that level's filterEdges pass reads; on a level with neither
    it expands.  A NaN or negative *threshold* raises
    :class:`~repro.errors.ParameterError`.
    """

    def __init__(
        self,
        threshold: float = DENSE_THRESHOLD,
        sparse_phase: Optional[str] = None,
    ) -> None:
        _check_threshold(threshold)
        self.threshold = threshold
        self.sparse_phase = sparse_phase

    def go_dense(
        self,
        engine: "TraversalEngine",
        state: "TraversalState",
        claimed: int,
    ) -> bool:
        return (
            state.visited_count < state.n
            and claimed > self.threshold * state.n
        )


class LigraEdgeHybrid(DirectionPolicy):
    """Ligra's edge-count switch, used by hybrid-BFS-CC.

    Go bottom-up when the frontier's outgoing edges plus its vertices
    exceed ``(m + n) * threshold / 4`` — at the default threshold of
    0.20 that is the classic (m + n)/20, so a handful of hub vertices
    can already flip a dense graph to the read-based sweep (the
    rMat2/com-Orkut regime).  The degree sum is a real per-round
    computation: one gather from the graph's cached degree array,
    charged as a ``scan`` over the frontier to the state's tracker.  A
    NaN or negative *threshold* raises
    :class:`~repro.errors.ParameterError`.
    """

    def __init__(
        self, graph: "CSRGraph", threshold: float = DENSE_THRESHOLD
    ) -> None:
        _check_threshold(threshold)
        self.graph = graph
        self.degrees = graph.degrees
        self.switch_budget = (
            (graph.num_directed + graph.num_vertices) * threshold / 4.0
        )

    def go_dense(
        self,
        engine: "TraversalEngine",
        state: "TraversalState",
        claimed: int,
    ) -> bool:
        frontier = state.frontier
        frontier_edges = int(self.degrees.take(frontier).sum())
        state.tracker.add("scan", work=float(frontier.size), depth=1.0)
        return frontier_edges + frontier.size > self.switch_budget
