"""A BFS distance oracle for tests whose subject is not BFS itself.

Generator and property tests check graph shape through hop distances:
a path's diameter, a hub's eccentricity, distances kept by a
relabeling.  This oracle answers them through
``scipy.sparse.csgraph``, independently of the traversal engine.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.graphs.csr import CSRGraph

__all__ = ["bfs_distances"]


def bfs_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distances from *source* as int64, ``-1`` where unreached."""
    n = graph.num_vertices
    adjacency = csr_matrix(
        (np.ones(graph.targets.size), graph.targets, graph.offsets), shape=(n, n)
    )
    dist = shortest_path(adjacency, unweighted=True, indices=source)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)
