"""Work-efficient level-synchronous parallel BFS.

The textbook parallel BFS the paper builds on ("a simple parallel
algorithm processes each level of the BFS in parallel"): each round
expands the frontier's out-edges, claims unvisited targets with an
arbitrary-CRCW write (a CAS race in the real implementation), and packs
the winners into the next frontier.  O(n + m) work; depth = (graph
eccentricity) * O(log n) for the per-round packing.

As an engine configuration:
:class:`~repro.engine.state.BFSTreeState` (without the visited bitmap —
visitedness is tested against ``distances``, saving one array, as the
pre-engine implementation did) driven push-only.

Used directly by :mod:`repro.connectivity.hybrid_bfs_cc` (as the
top-down half) and by tests as a distance oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.core import UNVISITED, TraversalEngine  # noqa: F401  (re-export)
from repro.engine.direction import AlwaysPush
from repro.engine.state import BFSTreeState
from repro.graphs.csr import CSRGraph

__all__ = ["BFSResult", "parallel_bfs"]


@dataclass(eq=False)
class BFSResult:
    """Output of one breadth-first search.

    Attributes
    ----------
    parents:
        ``parents[v]`` is the BFS-tree parent of ``v`` (-1 for the
        source and for unreached vertices).
    distances:
        Hop distance from the source (-1 where unreached).
    num_rounds:
        Number of frontier expansions (the source's eccentricity + 1
        within its component).
    num_visited:
        Vertices reached, including the source.
    """

    parents: np.ndarray
    distances: np.ndarray
    num_rounds: int
    num_visited: int


def parallel_bfs(graph: CSRGraph, source: int, round_budget=None) -> BFSResult:
    """Level-synchronous BFS from *source*.

    Each round is one synchronous PRAM step batch: expand, resolve the
    CAS races on unvisited targets (arbitrary winner), pack the next
    frontier.  Work O(n + m); depth O(ecc * log n).  ``round_budget``
    optionally bounds the rounds
    (:class:`~repro.resilience.policy.RoundBudget`).
    """
    state = BFSTreeState(
        graph, source, track_visited=False, budget=round_budget
    )
    TraversalEngine(state, direction=AlwaysPush()).run()
    return BFSResult(
        parents=state.parents,
        distances=state.distances,
        num_rounds=state.round,
        num_visited=state.num_visited,
    )
