"""serial-SF: the sequential spanning-forest connectivity baseline.

The paper compares every parallel implementation against "a simple
sequential spanning forest-based connectivity algorithm using
union-find (serial-SF) from the PBBS": stream the undirected edges once
through a union-find, then a post-processing pass assigns every vertex
the id of its tree root ("for the spanning forest-based connectivity
algorithms, we include in the timings a post-processing step that finds
the ID of the root of the tree for each vertex").

All work is charged under the sequential cost kind, so the machine
model keeps this baseline flat across thread counts — the paper's
Figure 2 horizontal line.
"""

from __future__ import annotations

from typing import List, Tuple


from repro.connectivity.base import ConnectivityResult
from repro.connectivity.union_find import UnionFind
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import edges_as_undirected_pairs
from repro.pram.cost import CostTracker, tracking
from repro.runtime.context import current_context

__all__ = ["serial_sf_cc", "serial_spanning_forest"]


def serial_spanning_forest(
    graph: CSRGraph,
) -> Tuple[UnionFind, List[Tuple[int, int]]]:
    """Union-find sweep over the edges; returns the structure + forest edges.

    O(m alpha(n)) sequential work.
    """
    # The edge extraction is part of this *sequential* program, so its
    # work must not parallelize in the machine model: swallow the
    # parallel-primitive charges and re-charge them as seq work.
    with tracking(CostTracker()) as sub:
        src, dst = edges_as_undirected_pairs(graph)
        uf = UnionFind(graph.num_vertices)
    current_context().tracker.add("seq", work=sub.total_work(), depth=0.0)
    merged = uf.union_edges(src, dst)
    uf.flush_costs()
    forest = list(zip(src[merged].tolist(), dst[merged].tolist()))
    return uf, forest


def serial_sf_cc(graph: CSRGraph) -> ConnectivityResult:
    """Connected components via sequential union-find spanning forest.

    Includes the root-finding post-pass in its charged cost, matching
    the paper's timing methodology.
    """
    uf, forest = serial_spanning_forest(graph)
    labels = uf.components()
    return ConnectivityResult(
        labels=labels,
        algorithm="serial-SF",
        iterations=1,
        stats={"forest_edges": len(forest)},
    )
