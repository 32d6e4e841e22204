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

The ground truth streams every edge; the check of a claimed labeling
need not.  Once no edge crosses labels, each component carries one
label, and the labeling is right iff no two components share one.  If
no two components of a spanning subgraph share a label, neither do the
graph's, which are unions of them.  On a dense symmetric graph a sample
of two edges per vertex usually settles it; otherwise an exact finish
over the edges stored at the vertices outside the sample's largest
component does (Afforest's subgraph sampling: Sutton, Ben-Nun and
Barak, IPDPS 2018).

* :func:`labelings_equivalent` — do two labelings induce the same
  partition of the vertices?  (Labels are arbitrary names.)
* :func:`verify_labeling` — full check against the graph: every edge
  must join same-labeled vertices (the labeling *refines* into
  components) and same-labeled vertices must be connected (no
  over-merging), established against the graph's components.  Raises
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
    """Rename labels to first-occurrence order: the partition's normal form.

    A sort groups equal labels into runs.  A run's first occurrence is
    its smallest vertex, and the runs are named 0, 1, ... in the order
    of their first occurrences.
    """
    labels = labels.reshape(-1)
    n = labels.size
    order = np.argsort(labels)
    ordered = labels.take(order)
    head = np.empty(n, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = head.nonzero()[0]
    first = np.minimum.reduceat(order, starts) if n else starts
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    name = np.empty(n, dtype=np.int64)
    name[is_first.nonzero()[0]] = np.arange(first.size)
    out = np.empty(n, dtype=np.int64)
    out[order] = np.repeat(name.take(first), np.diff(starts, append=n))
    return out


def labelings_equivalent(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff *a* and *b* induce the same partition of the vertices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(_canonical(a), _canonical(b)))


def _narrow(labels: np.ndarray) -> np.ndarray:
    """*labels* as int32 when every value fits, else unchanged.

    Equality is all the crossing check asks of a label, and half-width
    labels halve the bytes its gathers over every stored edge move.
    """
    if labels.dtype.kind not in "iu" or labels.dtype.itemsize <= 4 or not labels.size:
        return labels
    if labels.min() < np.iinfo(np.int32).min or labels.max() > np.iinfo(np.int32).max:
        return labels
    return labels.astype(np.int32)


def _first_crossing(
    graph: CSRGraph,
    labels: np.ndarray,
    stream: Optional[Tuple[np.ndarray, np.ndarray]],
) -> Optional[Tuple[int, int]]:
    """The first edge in CSR order whose endpoints' labels differ.

    Reads the edge *stream* when the caller built one, else every stored
    edge in one pass, recovering the source from the offsets.  On a
    symmetric graph both find the same edge: the first crossing directed
    edge has ``src < dst``, because its mirror is stored later.
    """
    if stream is not None:
        src, dst = stream
        crossing = labels.take(src) != labels.take(dst)
    else:
        names = _narrow(labels)
        crossing = names.take(graph.targets) != np.repeat(names, graph.degrees)
    if not crossing.size:
        return None
    i = int(np.argmax(crossing))
    if not crossing[i]:
        return None
    if stream is not None:
        return int(src[i]), int(dst[i])
    u = int(np.searchsorted(graph.offsets, i, side="right")) - 1
    return u, int(graph.targets[i])


def _sample(graph: CSRGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Each vertex's first two stored edges, as ``(lo, hi)`` pairs.

    An edge ``(v, t)`` with ``v > t`` is left out when ``deg(t) <= 2``:
    then ``t`` sampled its mirror.  So on a graph whose lists are all
    short, the sample holds each edge once, as the stream does.
    """
    deg = graph.degrees
    start = graph.offsets[:-1]
    one = (deg >= 1).nonzero()[0]
    two = (deg >= 2).nonzero()[0]
    src = np.concatenate([one, two])
    dst = graph.targets.take(np.concatenate([start.take(one), start.take(two) + 1]))
    keep = ((src < dst) | (deg.take(dst) > 2)).nonzero()[0]
    src, dst = src.take(keep), dst.take(keep)
    return np.minimum(src, dst), np.maximum(src, dst)


def _distinct(names: np.ndarray) -> bool:
    names = np.sort(names)
    return not (names[1:] == names[:-1]).any()


def _shared_label(
    graph: CSRGraph,
    labels: np.ndarray,
    stream: Optional[Tuple[np.ndarray, np.ndarray]],
) -> Optional[int]:
    """``None`` if no two components share a label, else the component count.

    Requires that no edge crosses labels, so each component carries one
    label: the labeling is right iff the labels at the components'
    roots are pairwise distinct.  The roots of a subgraph's components
    serve as well when their labels are already distinct, because the
    subgraph's components refine the graph's.

    With an edge *stream*, its components are the graph's.  Without
    one, the sample of :func:`_sample` is checked first.  If two sampled
    roots share a label, the edges stored at vertices outside the
    largest sampled component, mapped to their sampled roots, finish the
    components exactly: on a symmetric graph an edge with an endpoint
    outside that component is stored at that endpoint too.
    """
    n = graph.num_vertices
    ids = np.arange(n, dtype=np.int64)
    if stream is not None:
        root = _component_roots(n, *_ordered(graph, *stream))
        roots = (root == ids).nonzero()[0]
        return None if _distinct(labels.take(roots)) else roots.size
    root = _component_roots(n, *_sample(graph))
    roots = (root == ids).nonzero()[0]
    if _distinct(labels.take(roots)):
        return None
    outside = (root != np.bincount(root).argmax()).nonzero()[0]
    deg = graph.degrees.take(outside)
    skip = graph.offsets.take(outside) - (np.cumsum(deg) - deg)
    pos = np.repeat(skip, deg) + np.arange(int(deg.sum()), dtype=np.int64)
    lo = np.repeat(root.take(outside), deg)
    hi = root.take(graph.targets.take(pos))
    live = (lo != hi).nonzero()[0]
    lo, hi = lo.take(live), hi.take(live)
    joined = _component_roots(n, np.minimum(lo, hi), np.maximum(lo, hi))
    roots = roots.take((joined.take(roots) == roots).nonzero()[0])
    return None if _distinct(labels.take(roots)) else roots.size


def verify_labeling(
    graph: CSRGraph, labels: np.ndarray, reference: Optional[np.ndarray] = None
) -> None:
    """Raise :class:`VerificationError` unless *labels* solves the problem.

    Checks, in order:

    1. shape (one label per vertex);
    2. edge consistency: no edge may cross labels (otherwise the
       labeling splits a component);
    3. partition equality with the ground truth — *reference* when
       given, else the graph's components (otherwise it merges two
       components).

    Without *reference*, a symmetric graph storing more than four edges
    per vertex is checked against a sample of at most two edges per
    vertex, finished exactly only when the sample leaves two components
    sharing a label; any other graph against its edge stream, which
    the crossing check then reads too.
    """
    labels = np.asarray(labels)
    n = graph.num_vertices
    if labels.shape != (n,):
        raise VerificationError(
            f"labels shape {labels.shape} != ({n},) for this graph",
            reason="shape",
        )
    stream = None
    if reference is None and not (graph.symmetric and graph.num_directed > 4 * n):
        stream = _edge_stream(graph)
    edge = _first_crossing(graph, labels, stream)
    if edge is not None:
        u, v = edge
        raise VerificationError(
            f"edge ({u}, {v}) crosses labels {int(labels[u])} != {int(labels[v])}",
            reason="crossing-edge",
        )
    if reference is None:
        want = _shared_label(graph, labels, stream)
    elif labelings_equivalent(labels, reference):
        want = None
    else:
        want = np.unique(reference).size
    if want is not None:
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
