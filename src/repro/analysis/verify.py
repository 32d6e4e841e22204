"""Labeling verification: is a claimed connectivity labeling correct?

Ground truth comes from a plain-NumPy hook-and-shortcut component
routine (the Shiloach-Vishkin family: O(m log n) work, O(log n)
rounds), which is simple and exact rather than work-efficient.  The
oracle stays independent of the code it checks: it imports nothing
from the primitives, engine or connectivity layers, charges no cost
tracker, and never sees a workspace, fault plan or sanitizer.  The
test suite cross-checks it against a sequential BFS sweep, networkx and
scipy.  Graphs are read with symmetric-graph semantics: a graph
declared symmetric contributes each edge once, in its ``src < dst``
orientation.

* :func:`labelings_equivalent` — do two labelings induce the same
  partition of the vertices?  (Labels are arbitrary names.)
* :func:`verify_labeling` — full check against the graph: every edge
  must join same-labeled vertices (the labeling *refines* into
  components) and same-labeled vertices must be connected (no
  over-merging), established against the ground truth.  Raises
  :class:`~repro.errors.VerificationError` with a counterexample on
  failure.
* :func:`verify_decomposition` — the structural invariants of a
  (beta, d)-decomposition.

Also exposes :func:`ground_truth_labels`, the reference labeling.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import VerificationError
from repro.graphs.csr import CSRGraph

__all__ = [
    "ground_truth_labels",
    "labelings_equivalent",
    "verify_labeling",
    "verify_decomposition",
]


def _edge_stream(graph: CSRGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Every directed edge as ``(src, dst)``; ``dst`` is ``targets`` itself."""
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    return src, graph.targets


def _one_orientation(
    graph: CSRGraph, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep one orientation (``src < dst``) of each edge of a symmetric graph."""
    if not graph.symmetric:
        return src, dst
    keep = src < dst
    return src[keep], dst[keep]


def _component_roots(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each vertex's component root over the undirected edges ``(src, dst)``.

    Hook and shortcut.  Each round replaces every edge by the roots of
    its endpoints and drops the edges whose endpoints share a root (they
    never come back: roots only merge).  It hooks the larger root of
    each remaining edge under the smallest root it is joined to
    (``minimum.at``), then pointer-jumps until every vertex points at a
    root.  ``parent[v] <= v`` always holds, so the pointers never form a
    cycle; every round with a live edge removes at least one root, so
    the loop terminates.  At exit no edge joins two roots, so each root
    is its component's minimum vertex.
    """
    parent = np.arange(n, dtype=np.int64)
    u, v = src, dst
    while True:
        live = u != v
        if not live.all():
            u, v = u[live], v[live]
        if not u.size:
            return parent
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        u, v = parent[u], parent[v]


def ground_truth_labels(graph: CSRGraph) -> np.ndarray:
    """Reference labeling: component ids in order of each component's first vertex.

    On a symmetric graph this is exactly the labeling a sequential BFS
    sweep over the vertices in id order produces.
    """
    n = graph.num_vertices
    root = _component_roots(n, *_one_orientation(graph, *_edge_stream(graph)))
    rank = np.cumsum(root == np.arange(n), dtype=np.int64) - 1
    return rank[root]


def _canonical(labels: np.ndarray) -> np.ndarray:
    """Rename labels to first-occurrence order: the partition's normal form."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.reshape(-1)]


def labelings_equivalent(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff *a* and *b* induce the same partition of the vertices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(_canonical(a), _canonical(b)))


def verify_labeling(
    graph: CSRGraph, labels: np.ndarray, reference: Optional[np.ndarray] = None
) -> None:
    """Raise :class:`VerificationError` unless *labels* solves the problem.

    Checks, in order:

    1. shape (one label per vertex);
    2. edge consistency: no edge may cross labels (otherwise the
       labeling splits a component);
    3. partition equality with the ground truth — *reference* when
       given, else the hook-and-shortcut components of the same edge
       stream (otherwise it merges two components).
    """
    labels = np.asarray(labels)
    n = graph.num_vertices
    if labels.shape != (n,):
        raise VerificationError(
            f"labels shape {labels.shape} != ({n},) for this graph",
            reason="shape",
        )
    # On a symmetric graph the first crossing directed edge in CSR
    # order always has src < dst, so one orientation finds the same one.
    src, dst = _one_orientation(graph, *_edge_stream(graph))
    crossing = labels[src] != labels[dst]
    if crossing.any():
        i = int(np.argmax(crossing))
        raise VerificationError(
            f"edge ({int(src[i])}, {int(dst[i])}) crosses labels "
            f"{int(labels[src[i]])} != {int(labels[dst[i]])}",
            reason="crossing-edge",
        )
    del crossing
    if reference is None:
        roots = np.flatnonzero(_component_roots(n, src, dst) == np.arange(n))
        # No edge crosses labels, so each component carries one label:
        # the partitions differ iff two components share a label.
        same = np.unique(labels[roots]).size == roots.size
        want = roots.size
    else:
        same = labelings_equivalent(labels, reference)
        want = np.unique(reference).size
    if not same:
        got = int(np.unique(labels).size)
        raise VerificationError(
            f"labeling partitions vertices into {got} classes; "
            f"the graph has {int(want)} components",
            reason="partition-mismatch",
        )


def verify_decomposition(
    graph: CSRGraph, labels: np.ndarray, check_connected: bool = True
) -> int:
    """Validate a (beta, d)-decomposition's structural invariants.

    Every vertex must be labeled with a vertex id inside its own
    partition (the BFS center), and — when *check_connected* — each
    partition must induce a connected subgraph (it was grown by one
    BFS): the hook-and-shortcut components of the intra-partition edges
    must put every vertex with its center.  Returns the number of
    inter-partition directed edges so callers can test the beta bound
    statistically.
    """
    labels = np.asarray(labels)
    n = graph.num_vertices
    if labels.shape != (n,):
        raise VerificationError(
            "decomposition labels must cover all vertices", reason="shape"
        )
    if n == 0:
        return 0
    if labels.min() < 0 or labels.max() >= n:
        raise VerificationError(
            "decomposition labels must be vertex ids", reason="label-range"
        )
    centers = np.unique(labels)
    if not np.array_equal(labels[centers], centers):
        bad = centers[labels[centers] != centers][0]
        raise VerificationError(
            f"center {int(bad)} is not in its own partition",
            reason="center-outside-partition",
        )
    src, dst = _edge_stream(graph)
    intra = labels[src] == labels[dst]
    inter = int(intra.size - np.count_nonzero(intra))
    if check_connected:
        root = _component_roots(n, *_one_orientation(graph, src[intra], dst[intra]))
        stray = root != root[labels]
        if stray.any():
            bad = int(np.argmax(stray))
            raise VerificationError(
                f"vertex {bad} cannot reach its center {int(labels[bad])} "
                "inside its own partition",
                reason="disconnected-partition",
            )
    return inter
