"""Breadth-first search: parallel BFS and direction-optimizing BFS.

The frontier representation and the read-based sweep they share live
in the traversal engine (:mod:`repro.engine.frontier`,
:func:`repro.engine.kernels.bottom_up_step`).
"""

from repro.bfs.hybrid_bfs import HybridBFSResult, hybrid_bfs
from repro.bfs.parallel_bfs import UNVISITED, BFSResult, parallel_bfs

__all__ = [
    "BFSResult",
    "HybridBFSResult",
    "UNVISITED",
    "hybrid_bfs",
    "parallel_bfs",
]
