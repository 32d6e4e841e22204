"""hybrid-BFS-CC: direction-optimizing BFS over components one-by-one.

The baseline from Ligra the paper compares against: run a
direction-optimizing BFS [Beamer et al.] from an unvisited vertex,
label everything it reaches, and repeat until all vertices are
visited.  Work-efficient (O(n + m)), but the depth is the *sum of the
component diameters* — linear in the worst case — which is why it wins
on dense single-component graphs (random, rMat2, com-Orkut), collapses
on the line graph, and "does poorly in parallel [on rMat] since it
visits the components one-by-one".

The implementation shares one labels array across all the BFS runs
(per-component allocation would inflate the cost profile) and applies
the dense switch against the whole vertex set, exactly as a
Ligra-style code would: small components never trigger the bottom-up
sweep, big ones do.

As an engine configuration each per-component BFS is a
:class:`~repro.engine.state.ComponentLabelState` under Ligra's
edge-count direction rule
(:class:`~repro.engine.direction.LigraEdgeHybrid`).  The outer
next-source loop is a sequential cursor, not a level-synchronous
frontier loop, so it stays here.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.connectivity.base import ConnectivityResult
from repro.engine.core import UNVISITED, TraversalEngine
from repro.engine.direction import LigraEdgeHybrid
from repro.engine.frontier import DENSE_THRESHOLD
from repro.engine.state import ComponentLabelState
from repro.graphs.csr import CSRGraph
from repro.runtime.context import current_context

__all__ = ["hybrid_bfs_cc", "bfs_from_source"]


def bfs_from_source(
    graph: CSRGraph,
    source: int,
    labels: np.ndarray,
    label: int,
    dense_threshold: float = DENSE_THRESHOLD,
) -> int:
    """Label *source*'s component with *label* via hybrid BFS.

    Mutates *labels* (entries must be ``-1`` where unvisited); returns
    the number of vertices labeled, including the source.  A *source*
    outside ``[0, n)`` raises :class:`~repro.errors.ParameterError`
    and leaves *labels* unchanged.
    """
    state = ComponentLabelState(graph, source, labels, label)
    TraversalEngine(
        state, direction=LigraEdgeHybrid(graph, threshold=dense_threshold)
    ).run()
    return state.count


def hybrid_bfs_cc(
    graph: CSRGraph, dense_threshold: float = DENSE_THRESHOLD
) -> ConnectivityResult:
    """Connected components by repeated direction-optimizing BFS.

    Components are discovered in vertex-id order; the next source is
    found with a monotone cursor (amortized O(n) across the whole run).
    """
    tracker = current_context().tracker
    n = graph.num_vertices
    labels = np.full(n, UNVISITED, dtype=np.int64)
    tracker.add("alloc", work=float(n), depth=1.0)

    num_components = 0
    component_sizes: List[int] = []
    cursor = 0
    visited_total = 0
    labels_list_charge = 0
    while visited_total < n:
        while cursor < n and labels[cursor] != UNVISITED:
            cursor += 1
            labels_list_charge += 1
        if cursor >= n:
            break
        size = bfs_from_source(
            graph, cursor, labels, num_components, dense_threshold
        )
        component_sizes.append(size)
        visited_total += size
        num_components += 1
    # The source-scan is a sequential cursor in the real code too.
    tracker.add("seq", work=float(labels_list_charge), depth=float(num_components))
    return ConnectivityResult(
        labels=labels,
        algorithm="hybrid-BFS-CC",
        iterations=num_components,
        stats={"component_sizes_found": component_sizes},
    )
