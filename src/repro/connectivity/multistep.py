"""multistep-CC: Slota-Rajamanickam-Madduri (IPDPS 2014).

The strongest BFS-family baseline in the paper's comparison: first a
direction-optimizing parallel BFS from a high-degree vertex computes
the (usually giant) first component; then min-label propagation
finishes the remaining vertices in parallel.  This avoids
hybrid-BFS-CC's one-component-at-a-time collapse on many-component
graphs like rMat, while inheriting its strengths on dense
low-diameter inputs.  Worst case (the line graph): quadratic work and
linear depth — the paper's Table 2 shows it flat-lining there.
"""

from __future__ import annotations

import numpy as np

from repro.connectivity.base import ConnectivityResult
from repro.connectivity.hybrid_bfs_cc import bfs_from_source
from repro.connectivity.label_prop import propagate_labels
from repro.engine.core import UNVISITED
from repro.graphs.csr import CSRGraph
from repro.runtime.context import current_context

__all__ = ["multistep_cc"]


def multistep_cc(graph: CSRGraph) -> ConnectivityResult:
    """Connected components via BFS for the first component + label prop.

    The BFS source is the maximum-degree vertex (Slota et al.'s
    heuristic for hitting the giant component).
    """
    tracker = current_context().tracker
    n = graph.num_vertices
    labels = np.full(n, UNVISITED, dtype=np.int64)
    tracker.add("alloc", work=float(n), depth=1.0)
    if n == 0:
        return ConnectivityResult(
            labels=labels, algorithm="multistep-CC", iterations=0, stats={}
        )

    # Stage 1: hybrid BFS from the max-degree vertex.
    source = int(np.argmax(graph.degrees))
    tracker.add("scan", work=float(n), depth=1.0)
    # Use a label outside the vertex-id space so stage 2's min-labels
    # (vertex ids) can never swallow the giant component.
    giant_label = n
    giant_size = bfs_from_source(graph, source, labels, giant_label)

    # Stage 2: min-label propagation over everything the BFS missed.
    rest = labels == UNVISITED
    tracker.add("scan", work=float(n), depth=1.0)
    ids = np.arange(n, dtype=np.int64)
    labels[rest] = ids[rest]
    sweeps = propagate_labels(graph, labels, active_mask=rest)
    return ConnectivityResult(
        labels=labels,
        algorithm="multistep-CC",
        iterations=1 + sweeps,
        stats={"giant_component_size": giant_size, "label_prop_sweeps": sweeps},
    )
