"""Engine states for the BFS family.

Two :class:`~repro.engine.core.TraversalState` implementations cover
every BFS-shaped baseline:

* :class:`BFSTreeState` — builds a BFS tree (parents + hop distances)
  from one source; configured push-only it is the textbook
  level-synchronous BFS (:func:`repro.bfs.parallel_bfs`), with a
  hybrid policy it is direction-optimizing BFS
  (:func:`repro.bfs.hybrid_bfs`).
* :class:`ComponentLabelState` — writes one component label over
  everything reachable from a source into a shared labels array; the
  per-component building block of hybrid-BFS-CC and multistep-CC.

(The decomposition family's state is
:class:`~repro.decomp.base.DecompState`, which lives with the
decomposition machinery it owns.)

Cost-parity notes: the BFS states charge exactly what the pre-engine
loops charged — no ``bfsPre`` seeding phase, no phase labels at all
(profiles stay "unphased"), unit end-of-round barriers (see
:func:`~repro.engine.core.end_round`), and the visited bitmap is only
allocated when a direction policy can actually pull.  Behaviour-parity
note: the BFS baselines have never been fault-injection targets (a
dropped frontier or corrupted label silently splits components, and the
resilient runner relies on them as *clean* fallbacks), so their
``begin_round`` checks the optional round budget but deliberately does
NOT consult the active :class:`~repro.resilience.faults.FaultPlan` —
fault hooks fire only from the decomposition family's round boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.engine.core import UNVISITED, TraversalEngine, TraversalState, end_round
from repro.engine.frontier import Frontier
from repro.engine.kernels import bottom_up_step
from repro.errors import ParameterError
from repro.primitives.atomics import first_winner
from repro.runtime.context import current_context

if TYPE_CHECKING:
    from repro.graphs.csr import CSRGraph
    from repro.resilience.policy import RoundBudget

__all__ = ["BFSTreeState", "ComponentLabelState"]


def _check_source(source: int, n: int) -> None:
    """Reject a traversal source outside ``[0, n)``."""
    if not 0 <= source < n:
        raise ParameterError(f"source {source} out of range [0, {n})")


class BFSTreeState(TraversalState):
    """BFS-tree construction state: parents, distances, visited set.

    Parameters
    ----------
    graph / source:
        The traversal input; *source* is range-checked here so every
        BFS entry point shares one validation.
    track_visited:
        Allocate the boolean visited bitmap (needed by any policy that
        can pull; the push-only configuration tests visitedness against
        ``distances`` and allocates one array fewer, as the seed's
        ``parallel_bfs`` did).
    budget:
        Optional :class:`~repro.resilience.policy.RoundBudget` checked
        at every round boundary.
    """

    def __init__(
        self,
        graph: "CSRGraph",
        source: int,
        track_visited: bool = False,
        budget: "Optional[RoundBudget]" = None,
    ) -> None:
        n = graph.num_vertices
        _check_source(source, n)
        self.graph = graph
        self.source = source
        self.budget = budget
        tracker = current_context().tracker
        self.parents = np.full(n, UNVISITED, dtype=np.int64)
        self.distances = np.full(n, UNVISITED, dtype=np.int64)
        self.visited: Optional[np.ndarray] = (
            np.zeros(n, dtype=bool) if track_visited else None
        )
        tracker.add(
            "alloc", work=float((3 if track_visited else 2) * n), depth=1.0
        )
        self.distances[source] = 0
        if self.visited is not None:
            self.visited[source] = True
        self.num_visited = 1
        self.directions: List[str] = []
        self.workspace = current_context().backend.workspace
        self._frontier = Frontier.from_vertices(n, np.zeros(0, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    @property
    def visited_count(self) -> int:
        return self.num_visited

    @property
    def done(self) -> bool:
        return self._frontier.size == 0

    @property
    def frontier(self) -> np.ndarray:
        return self._frontier.as_vertices()

    def initial_frontier(self) -> np.ndarray:
        return np.array([self.source], dtype=np.int64)

    def shared_arrays(self) -> "dict[str, np.ndarray]":
        arrays = {"parents": self.parents, "distances": self.distances}
        if self.visited is not None:
            arrays["visited"] = self.visited
        return arrays

    def begin_round(self, engine: TraversalEngine, next_frontier: np.ndarray) -> None:
        if self.budget is not None:
            self.budget.check(self.round)
        self._frontier = Frontier.from_vertices(self.n, next_frontier)

    def _absorb(self, winners: np.ndarray) -> None:
        # The claim's bookkeeping writes ride along with the parent
        # scatter (already charged by the round kernel).
        if self.visited is not None:
            self.visited[winners] = True
        self.distances[winners] = self.round + 1
        self.num_visited += int(winners.size)

    def push_round(self, engine: TraversalEngine) -> np.ndarray:
        tracker = current_context().tracker
        plan = current_context().fault_plan
        ws = self.workspace
        self.directions.append("top-down")
        src, dst = self.graph.expand(self.frontier, workspace=ws)
        if self.visited is not None:
            fresh = ~ws.take(self.visited, dst)
        else:
            fresh = ws.take(self.distances, dst) == UNVISITED
        tracker.add("gather", work=float(dst.size), depth=1.0)
        # CAS race: one arbitrary winner per newly discovered vertex.
        win_pos, winners = first_winner(
            ws.compress(fresh, dst),
            workspace=ws,
            tracker=tracker,
            plan=plan,
        )
        src_fresh = ws.compress(fresh, src)
        self.parents[winners] = src_fresh[win_pos]
        tracker.add("scatter", work=float(winners.size), depth=1.0)
        self._absorb(winners)
        end_round(packing="unit")
        return winners

    def pull_round(self, engine: TraversalEngine) -> np.ndarray:
        self.directions.append("bottom-up")
        assert self.visited is not None, "pull requires track_visited=True"
        winners, parent_of, _examined = bottom_up_step(
            self.graph,
            self._frontier.as_bitmap(),
            self.visited,
            workspace=self.workspace,
        )
        self.parents[winners] = parent_of
        self._absorb(winners)
        end_round(packing="unit")
        return winners


class ComponentLabelState(TraversalState):
    """Label one component into a shared labels array.

    The hybrid-BFS-CC building block: *labels* is shared across all the
    per-component runs (per-component allocation would inflate the cost
    profile), entries must be ``UNVISITED`` where not yet reached, and
    every vertex this traversal claims gets *label*.  An out-of-range
    *source* raises :class:`~repro.errors.ParameterError` before
    *labels* is touched.
    """

    def __init__(
        self,
        graph: "CSRGraph",
        source: int,
        labels: np.ndarray,
        label: int,
        budget: "Optional[RoundBudget]" = None,
    ) -> None:
        _check_source(source, graph.num_vertices)
        self.graph = graph
        self.source = source
        self.labels = labels
        self.label = np.int64(label)
        self.budget = budget
        self.workspace = current_context().backend.workspace
        labels[source] = self.label
        self.count = 1
        self._frontier = np.zeros(0, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    @property
    def visited_count(self) -> int:
        # Component-local: how many vertices this run has labeled.
        return self.count

    @property
    def done(self) -> bool:
        return self._frontier.size == 0

    @property
    def frontier(self) -> np.ndarray:
        return self._frontier

    def initial_frontier(self) -> np.ndarray:
        return np.array([self.source], dtype=np.int64)

    def shared_arrays(self) -> "dict[str, np.ndarray]":
        return {"labels": self.labels}

    def begin_round(self, engine: TraversalEngine, next_frontier: np.ndarray) -> None:
        if self.budget is not None:
            self.budget.check(self.round)
        self._frontier = next_frontier

    def _claim(self, winners: np.ndarray) -> None:
        self.labels[winners] = self.label
        current_context().tracker.add("scatter", work=float(winners.size), depth=1.0)
        self.count += int(winners.size)

    def push_round(self, engine: TraversalEngine) -> np.ndarray:
        tracker = current_context().tracker
        plan = current_context().fault_plan
        ws = self.workspace
        src, dst = self.graph.expand(self._frontier, workspace=ws)
        fresh = ws.take(self.labels, dst) == UNVISITED
        tracker.add("gather", work=float(dst.size), depth=1.0)
        _pos, winners = first_winner(
            ws.compress(fresh, dst),
            workspace=ws,
            tracker=tracker,
            plan=plan,
        )
        self._claim(winners)
        end_round(packing="unit")
        return winners

    def pull_round(self, engine: TraversalEngine) -> np.ndarray:
        tracker = current_context().tracker
        n = self.n
        visited = self.labels != UNVISITED
        tracker.add("scan", work=float(n), depth=1.0)
        # The frontier byte array is preallocated and reused in a
        # Ligra-style implementation, so (as in the seed) building it
        # is not charged as a scatter here.
        bitmap = np.zeros(n, dtype=bool)
        bitmap[self._frontier] = True
        winners, _parents, _examined = bottom_up_step(
            self.graph, bitmap, visited, workspace=self.workspace
        )
        self._claim(winners)
        end_round(packing="unit")
        return winners
