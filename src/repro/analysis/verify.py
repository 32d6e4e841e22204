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

from typing import List, Optional, Tuple

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
    """Each edge once as ``(src, dst)``, in CSR order.

    A symmetric graph contributes the ``src < dst`` orientation of each
    edge, picked by a position scan and two ``take`` gathers; any other
    graph contributes every directed edge as stored.
    """
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    dst = graph.targets
    if not graph.symmetric:
        return src, dst
    keep = (src < dst).nonzero()[0]
    return src.take(keep), dst.take(keep)


def _ordered(
    graph: CSRGraph, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The stream's edges as ``(lo, hi)`` pairs with ``lo <= hi``."""
    if graph.symmetric:
        return src, dst
    return np.minimum(src, dst), np.maximum(src, dst)


def _component_roots(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each vertex's component root over the undirected edges ``(lo, hi)``.

    Hook and shortcut, with ``lo <= hi`` for every edge on entry.
    ``parent[v] <= v`` always holds, so the pointers never form a cycle
    and ``v`` is a root iff ``parent[v] == v``.  At the start of a round
    every edge joins two roots, the smaller one first.  The round hooks
    each ``hi`` under the smallest ``lo`` it is joined to
    (``minimum.at``); the first round does so on the input itself.
    Every ``hi`` is hooked, so the roots hooked in the round are the
    distinct ``hi``, and only they are shortcut: pointer jumps among
    them until each points at a root.  One gather then maps every edge
    to the roots of its endpoints; the edges whose endpoints share a
    root are dropped (they never come back: roots only merge) and the
    rest reordered.  Every round with a live edge removes at least one
    root, so the loop terminates, and at exit no edge joins two roots,
    so each root is its component's minimum vertex.

    A vertex hooked in round ``r`` is left pointing at a root of the
    end of round ``r``, which is either a final root or was hooked in a
    later round.  So one pass over the rounds' hooked vertices, last
    round first, sets each to its final root with one jump.
    """
    parent = np.arange(n, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
    # Round 1: every vertex is a root and every edge ordered and live.
    np.minimum.at(parent, hi, lo)
    hooked = (parent != np.arange(n)).nonzero()[0]
    rounds: List[np.ndarray] = []
    while hooked.size:
        rounds.append(hooked)
        todo = hooked
        while todo.size:
            up = parent.take(todo)
            jump = parent.take(up)
            moved = (jump != up).nonzero()[0]
            todo = todo.take(moved)
            parent[todo] = jump.take(moved)
        lo, hi = parent.take(lo), parent.take(hi)
        live = (lo != hi).nonzero()[0]
        lo, hi = lo.take(live), hi.take(live)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        np.minimum.at(parent, hi, lo)
        # Each hooked root once: the one edge whose index its slot kept.
        at = np.arange(hi.size, dtype=np.int64)
        slot[hi] = at
        hooked = hi.take((slot.take(hi) == at).nonzero()[0])
    for hooked in reversed(rounds):
        parent[hooked] = parent.take(parent.take(hooked))
    return parent


def ground_truth_labels(graph: CSRGraph) -> np.ndarray:
    """Reference labeling: component ids in order of each component's first vertex.

    On a symmetric graph this is exactly the labeling a sequential BFS
    sweep over the vertices in id order produces.
    """
    n = graph.num_vertices
    root = _component_roots(n, *_ordered(graph, *_edge_stream(graph)))
    rank = np.cumsum(root == np.arange(n), dtype=np.int64) - 1
    return rank.take(root)


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
    src, dst = _edge_stream(graph)
    crossing = labels.take(src) != labels.take(dst)
    if crossing.any():
        i = int(np.argmax(crossing))
        raise VerificationError(
            f"edge ({int(src[i])}, {int(dst[i])}) crosses labels "
            f"{int(labels[src[i]])} != {int(labels[dst[i]])}",
            reason="crossing-edge",
        )
    del crossing
    if reference is None:
        root = _component_roots(n, *_ordered(graph, src, dst))
        roots = (root == np.arange(n)).nonzero()[0]
        # No edge crosses labels, so each component carries one label:
        # the partitions differ iff two components share a label.
        named = np.sort(labels.take(roots))
        same = not (named[1:] == named[:-1]).any()
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
    if not np.array_equal(labels.take(centers), centers):
        bad = centers[labels[centers] != centers][0]
        raise VerificationError(
            f"center {int(bad)} is not in its own partition",
            reason="center-outside-partition",
        )
    src, dst = _edge_stream(graph)
    intra = (labels.take(src) == labels.take(dst)).nonzero()[0]
    inter = src.size - intra.size
    if graph.symmetric:
        # The stream holds one of each mirrored pair of directed edges.
        inter *= 2
    if check_connected:
        lo, hi = _ordered(graph, src.take(intra), dst.take(intra))
        root = _component_roots(n, lo, hi)
        stray = root != root.take(labels)
        if stray.any():
            bad = int(np.argmax(stray))
            raise VerificationError(
                f"vertex {bad} cannot reach its center {int(labels[bad])} "
                "inside its own partition",
                reason="disconnected-partition",
            )
    return inter
