"""The shared round kernels: one vectorized CRCW step batch each.

These are the bodies of every level-synchronous round in the system,
written once.  The decomposition kernels (:func:`arb_round`,
:func:`min_round`, :func:`dense_round`, :func:`filter_edges`) operate
on a :class:`~repro.decomp.base.DecompState`; :func:`bottom_up_step`
is the read-based sweep every pull round runs, the decomposition's
dense round and the BFS family's alike.  The push rounds expand their
frontier through the ragged gather; the hybrids' post-loop
:func:`filter_edges` instead reads the level's differing edges in
storage order, as the paper's sign-bit pass streams its edge array.  A
Decomp-Arb push round run after every vertex is visited (a drain
round) on a level that ran a dense round reads that same stream, a
round early, and :func:`filter_edges` reuses it.  On a level that ends
in one partition neither the pass nor the drain round has an edge to
find, and both skip the host work while charging the same.  The
engine's policy objects dispatch to them.

Execution-backend note: the gathers, compressions and CAS races go
through the state's :mod:`~repro.engine.workspace`, whose class is the
backend's choice of NumPy execution (checked or unchecked gathers,
sort- or scatter-based races); the rest is plain NumPy.  The kernels
take the cost tracker, fault plan and sanitizer from the state, which
resolved them once per level, and pass them into the primitives, so a
round performs no context-var reads.

Cost parity note: each kernel charges exactly what its pre-engine
counterpart charged; the only intentional change is that every
end-of-round barrier is routed through
:func:`repro.engine.core.end_round`, which charges the uniform
``log2(round_edges + 1)`` packing depth for decomposition rounds
(previously the hybrid's dense round charged ``log2(n_vertices + 1)``,
making the Figure 5-7 phase breakdowns mutually incomparable).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.engine.core import UNVISITED, end_round
from repro.engine.workspace import NULL_WORKSPACE
from repro.graphs.csr import charge_expansion, ragged_positions
from repro.primitives.atomics import (
    PAIR_SHIFT,
    encode_pair,
    first_winner,
    write_min,
)
from repro.primitives.pack import pack_index
from repro.runtime.context import current_context

if TYPE_CHECKING:
    from repro.decomp.base import DecompState
    from repro.engine.workspace import NullWorkspace
    from repro.graphs.csr import CSRGraph
    from repro.pram.cost import CostTracker

__all__ = [
    "arb_round",
    "min_round",
    "dense_round",
    "filter_edges",
    "bottom_up_step",
    "_PAIR_INF",
]

#: writeMin identity for the merged (delta', center) pair array.
_PAIR_INF = np.int64((1 << 62) - 1)

#: Payload half of an encoded (priority, payload) pair (the component
#: id Decomp-Min's phase 2 reads back out of the writeMin cell).
_PAIR_PAYLOAD_MASK = np.int64((1 << PAIR_SHIFT) - 1)


#: The pull sweep's chunks: each unvisited vertex reads this many edges
#: in the first pass, and each later pass reads this factor more.
_FIRST_CHUNK = 4
_CHUNK_GROWTH = 4

#: The pull sweep reads all remaining edges in one pass once they number
#: at most this many per vertex still scanning, or at most
#: ``_FULL_PASS_EDGES`` in all.  Timed on the sweep inputs of six
#: ``orkut_like(30_000, 76.0)`` runs and of two bench ``table2-sweep``
#: sweeps (2-core x86-64 VM, numpy 2.4): 3.2 and 5.3 ms in all, against
#: 11.3 and 7.3 ms for one full expansion per sweep.  A floor of 65,536
#: edges read 3.4 and 5.9 ms: pulls with a few thousand unvisited
#: vertices then expand every edge.  A first chunk of 2 or 8 edges moved
#: the first total by -17 % or +19 % and the second by +3 % or 0 %; the
#: other constants moved either total by under 6 %.
_FULL_PASS_PER_VERTEX = 8
_FULL_PASS_EDGES = 1 << 12


def _full_pass(edges: int, vertices: int) -> bool:
    """Whether the pull sweep reads all *edges* left in one pass."""
    return edges <= max(_FULL_PASS_PER_VERTEX * vertices, _FULL_PASS_EDGES)


def _edge_sources(
    frontier: np.ndarray, counts: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """The frontier vertex owning each edge position *pos* of an expansion.

    :meth:`~repro.graphs.csr.CSRGraph.expand_targets` lays each frontier
    vertex's ``counts[i]`` edges out in turn, so the owner of position
    ``p`` is the first vertex whose inclusive-cumsum end is ``> p``.
    One binary search per position.  :func:`arb_round` calls this on the
    edges it keeps, which are usually few but not always: one
    ``decomp-arb-CC`` run (seed 39) on ``rmat(18, 3.7·2^18, seed=39)``
    resolves 125,786 kept edges over 28 calls, 73,811 of them in one.
    """
    return frontier[np.searchsorted(np.cumsum(counts), pos, side="right")]


def _one_partition(C: np.ndarray) -> bool:
    """Whether every entry of *C* holds one label, other than ``UNVISITED``.

    Then every vertex is visited and every edge joins two vertices of
    one partition: a push round races nothing and keeps no edge, and
    :func:`filter_edges` keeps none.  That follows from *C* alone, read
    as the kernels read it, so it holds under a ``label_corrupt`` fault
    too (which copies a visited vertex's label, never ``UNVISITED``).
    One min and one max pass over *C*.
    """
    if C.size == 0:
        return False
    low = C.min()
    return bool(low != UNVISITED and low == C.max())


def _drain_reads_stream(state: "DecompState") -> bool:
    """Whether this push round is a drain round that reads the level's stream.

    A drain round runs once every vertex is visited.  On a level that
    ran a dense round, :func:`filter_edges` builds the level's label
    stream at level end (:func:`_label_stream`), so the drain classifies
    its frontier off that stream instead of expanding it.  On a level
    with no dense round the stream may read all ``m`` edges for a
    frontier that holds a few percent of them, and the drain expands
    instead.
    """
    return state.visited >= state.n and bool(state.deferred)


def arb_round(state: "DecompState") -> np.ndarray:
    """One Decomp-Arb BFS round over the current frontier.

    Returns the next frontier (this round's CAS winners).  Mutates
    ``state.C`` and appends surviving inter-edges.

    One pass classifies every edge (Algorithm 3 lines 12-19): gather
    the target labels, race the unvisited targets, scatter the
    winners, then refresh the raced targets' labels.  A winner edge now
    reads its own component, a loser reads the winner's — visible to
    it after the race — and a visited target kept its label, so the
    inter-component edges are exactly those whose two labels differ.
    The source labels come from the frontier (``repeat`` of one label
    per frontier vertex); the source vertices are recovered for the
    kept edges only.  Every label stream is in ``C``'s narrow type
    (:func:`~repro.engine.core.label_dtype`), so each per-edge gather
    and compare moves a few bytes per edge; the winners' labels are
    read through two ``take``s (position of the raced edge, then its
    source label), and the kept labels stay narrow
    (:meth:`~repro.decomp.base.DecompState.keep_inter`).

    A round that runs once every vertex is visited (a drain round)
    races nothing: it only classifies its frontier's edges.  It does
    not expand its frontier when the level ends in one partition
    (:func:`_one_partition`), where it keeps nothing, or when the level
    ran a dense round, whose :func:`filter_edges` builds the level's
    label stream at level end anyway: the drain builds it now
    (:func:`_label_stream`), keeps its frontier's differing edges, and
    leaves the stream for :func:`filter_edges`.  Either way it reads
    ``E`` from the degree array and charges what the full round
    charges with no unvisited target and no winner.
    """
    tracker, ws = state.tracker, state.workspace
    graph, C, frontier = state.graph, state.C, state.frontier
    one_partition = state.visited >= state.n and _one_partition(C)
    if one_partition or _drain_reads_stream(state):
        edges = int(ws.take(graph.degrees, frontier).sum())
        state.edges_inspected += edges
        if frontier.size:
            charge_expansion(tracker, frontier.size, edges)
        if edges:
            if not one_partition:
                _keep_differing(state, frontier, keep_stream=True)
            tracker.add("gather", work=float(2 * edges), depth=1.0)
            first_winner(
                frontier[:0],
                workspace=ws,
                tracker=tracker,
                plan=state.plan,
                sanitizer=state.sanitizer,
            )
            tracker.add("scatter", work=0.0, depth=1.0)
            tracker.add("gather", work=float(edges), depth=1.0)
        end_round(edges, tracker=tracker)
        return np.zeros(0, dtype=np.int64)
    counts, dst = graph.expand_targets(frontier, workspace=ws, tracker=tracker)
    edges = int(dst.size)
    state.edges_inspected += edges
    if edges == 0:
        end_round(tracker=tracker)
        return np.zeros(0, dtype=np.int64)
    cu = np.repeat(ws.take(C, frontier), counts)
    cw = ws.take(C, dst)
    tracker.add("gather", work=float(2 * edges), depth=1.0)

    # CAS races on unvisited targets: one arbitrary winner each.
    unvis_pos = (cw == UNVISITED).nonzero()[0]
    race = ws.take(dst, unvis_pos)
    win_local, winners = first_winner(
        race,
        workspace=ws,
        tracker=tracker,
        plan=state.plan,
        sanitizer=state.sanitizer,
    )
    C[winners] = ws.take(cu, ws.take(unvis_pos, win_local))
    tracker.add("scatter", work=float(winners.size), depth=1.0)
    state.visited += int(winners.size)

    # Re-read the raced targets' labels; the winner edges are charged
    # no second read (they classify as intra by construction).
    cw[unvis_pos] = ws.take(C, race)
    tracker.add("gather", work=float(edges - winners.size), depth=1.0)
    keep = (cw != cu).nonzero()[0]
    if keep.size:
        state.keep_inter(
            cu[keep], cw[keep], _edge_sources(frontier, counts, keep), dst[keep]
        )
    # End-of-round packing of kept edges / next frontier.
    end_round(edges, tracker=tracker)
    return winners


def min_round(
    state: "DecompState", pair: np.ndarray, trusted_keys: bool = False
) -> np.ndarray:
    """One Decomp-Min round: writeMin phase, barrier, claim phase.

    *pair* is the per-vertex merged (delta', center) writeMin cell
    (the first element of the paper's C pairs); ``state.C`` plays the
    role of the second element (the component id).  Returns the next
    frontier.  ``trusted_keys`` skips the per-round pair-encoding range
    scans (the fast backend's tie-break policy proves the whole domain
    once at setup).

    The unvisited targets' source labels and target ids are gathered
    once and serve both phases.  Phase 1 overwrites the unvisited
    positions of the target labels with their source labels, so one
    ``cw != cu`` pass keeps exactly the visited inter-edges, in stream
    order; phase 2 takes the losers' edges from the unvisited arrays.
    The gathers of kept and lost edges are skipped when there are none.

    The label streams are in ``C``'s narrow type, as in
    :func:`arb_round`, and so are the labels it keeps; the raced edges'
    centers are widened to int64 once, for the ``frac`` gather, the
    pair encoding and the payload compare.

    Unlike :func:`arb_round`, the kernel keeps the whole source stream:
    most of its rounds keep or lose some edge, and one ``repeat`` of the
    frontier plus gathers from it costs less there than a binary search
    per kept edge (:func:`_edge_sources`).
    """
    tracker, ws = state.tracker, state.workspace
    graph, C, frontier = state.graph, state.C, state.frontier
    frac = state.schedule.frac

    # ---- Phase 1: writeMin marking + classification of visited targets.
    with tracker.phase("bfsPhase1"):
        counts, dst = graph.expand_targets(frontier, workspace=ws, tracker=tracker)
        edges = int(dst.size)
        state.edges_inspected += edges
        if edges == 0:
            end_round(tracker=tracker)
            return np.zeros(0, dtype=np.int64)
        src = frontier.repeat(counts)
        cu = ws.take(C, src)
        cw = ws.take(C, dst)
        # 3 words per edge: the source's component plus the target's
        # (conflict-value, componentID) *pair* — the extra word per
        # vertex visit the paper's pair layout trades for one fewer
        # cache miss than a two-array layout would cost.
        tracker.add("gather", work=float(3 * edges), depth=1.0)

        unvis_pos = (cw == UNVISITED).nonzero()[0]
        # writeMin((delta'_{C[u]}, C[u])) onto every unvisited target.
        cu_unvis = ws.take(cu, unvis_pos)
        dst_unvis = ws.take(dst, unvis_pos)
        # The raced edges' centers in int64: they index frac, enter the
        # int64 pair encoding and are compared with its payloads.
        centers = cu_unvis.astype(np.int64)
        keys = ws.take(frac, centers)
        keys = encode_pair(keys, centers, check=not trusted_keys, out=keys)
        write_min(
            pair,
            dst_unvis,
            keys,
            tracker=tracker,
            workspace=ws,
            sanitizer=state.sanitizer,
        )

        # Edges to visited targets resolve now: inter iff labels differ.
        cw[unvis_pos] = cu_unvis
        keep_pos = (cw != cu).nonzero()[0]
        if keep_pos.size:
            state.keep_inter(
                cu.take(keep_pos),
                cw.take(keep_pos),
                src.take(keep_pos),
                dst.take(keep_pos),
            )
        # Phase-1 output compaction (the paper's in-place E overwrite).
        end_round(edges, tracker=tracker)

    # ---- Phase 2: losers classify, winners claim (one CAS per target).
    with tracker.phase("bfsPhase2"):
        # The paper's phase 2 re-reads every edge kept by phase 1: the
        # unresolved (unvisited-target) ones — whose merged pair is two
        # words — plus the already-classified inter edges, skipped via
        # their sign bit at unit cost.
        tracker.add(
            "gather", work=float(2 * unvis_pos.size + keep_pos.size), depth=1.0
        )
        if unvis_pos.size == 0:
            end_round(tracker=tracker)
            return np.zeros(0, dtype=np.int64)
        winner_center = ws.take(pair, dst_unvis)
        winner_center &= _PAIR_PAYLOAD_MASK
        won = winner_center == centers

        # Winning component's vertices race one CAS to add w once.
        won_pos = won.nonzero()[0]
        first_pos, new_vertices = first_winner(
            ws.take(dst_unvis, won_pos),
            workspace=ws,
            tracker=tracker,
            plan=state.plan,
            sanitizer=state.sanitizer,
        )
        # A won edge's source label is its target's winning center.
        C[new_vertices] = cu_unvis.take(won_pos.take(first_pos))
        # Mark claimed cells so later writeMins cannot touch them
        # (the paper sets C1[w] = -1; our pair array is per-DECOMP and
        # claimed vertices are excluded by C[w] != UNVISITED instead).
        tracker.add("scatter", work=float(new_vertices.size), depth=1.0)
        state.visited += int(new_vertices.size)

        # Losers: inter-component iff the winner differs (it does, by
        # definition of losing) — matches Algorithm 2 lines 32-35.
        if won_pos.size < unvis_pos.size:
            lost = (~won).nonzero()[0]
            lose_dst = dst_unvis.take(lost)
            state.keep_inter(
                cu_unvis.take(lost),
                C.take(lose_dst),
                src.take(unvis_pos.take(lost)),
                lose_dst,
            )
        end_round(edges, tracker=tracker)
    return new_vertices


def dense_round(state: "DecompState") -> np.ndarray:
    """One read-based round: unvisited vertices pull from the frontier.

    Returns the newly visited vertices (next frontier).  The sweep is
    :func:`bottom_up_step`; this round adds the frontier bitmap's
    scatter and the adoption scatter, which it charges (like the push
    rounds' winner scatters) whether or not some vertex hit.  Each
    adopter writes only its own label, so the stores are declared to
    the sanitizer as single-writer.  Tie-break-policy independent:
    whoever the tie-break rule would pick among concurrent writers, the
    pull sweep adopts the first frontier neighbor in adjacency order (a
    legal arbitrary-CRCW schedule).
    """
    tracker = state.tracker
    C = state.C

    on_frontier = np.zeros(state.n, dtype=bool)
    on_frontier[state.frontier] = True
    tracker.add("scatter", work=float(state.frontier.size), depth=1.0)

    winners, adopted_from, examined = bottom_up_step(
        state.graph,
        on_frontier,
        pack_index(C == UNVISITED),
        state.workspace,
        tracker=tracker,
    )
    if state.sanitizer is not None:
        state.sanitizer.record_write(C, winners)
    C[winners] = state.workspace.take(C, adopted_from)
    tracker.add("scatter", work=float(winners.size), depth=1.0)
    state.visited += int(winners.size)
    state.edges_inspected += examined
    end_round(examined, tracker=tracker)
    return winners


#: :func:`_label_stream` builds the stream from the minor vertices' own
#: edges while those are at most 1/this of the CSR's edges, and compares
#: both labels of every edge past that (or on unsorted lists).  The 35
#: multi-partition level-0 streams of 80 ``decomp-arb-hybrid-CC`` runs
#: on ``orkut_like(30_000, 76.0)`` (graph seeds 2 and 3), median per
#: band, best of 5 (2-core x86-64 VM, numpy 2.4; docs/performance.md):
#:
#: ===============  =======  ==========  ===========
#: minor edges / m  streams  minor side  both labels
#: ===============  =======  ==========  ===========
#: < 0.5 %          19       0.13 ms     5.02 ms
#: 1-2 %            3        1.87 ms     9.28 ms
#: 5-8 %            2        5.50 ms     10.17 ms
#: 10-12 %          2        11.68 ms    10.98 ms
#: 20-30 %          3        21.76 ms    10.19 ms
#: ===============  =======  ==========  ===========
_MINOR_EDGE_SHARE = 10


def _label_stream(state: "DecompState") -> Tuple[np.ndarray, np.ndarray]:
    """The storage-order label stream of the level: ``(dst, first)``.

    ``dst`` lists the targets of the CSR's edges whose two endpoint
    labels differ, in storage order; ``first[v]`` is the index in
    ``dst`` of vertex ``v``'s first such edge (``first[n]`` is
    ``dst.size``).

    A multi-partition level usually ends with one partition holding
    most vertices.  Every edge between two of its *major* vertices
    joins one label, so the differing edges are those of the *minor*
    vertices plus the edges into them.  While the minor vertices' own
    edges are few (:data:`_MINOR_EDGE_SHARE`) and the adjacency lists
    are sorted (:attr:`~repro.graphs.csr.CSRGraph.sorted_adjacency`),
    :func:`_minor_side_stream` builds the stream from those edges
    alone.  Otherwise :func:`_two_label_stream` compares both labels of
    every edge.  Either way the stream is the same.

    A level's drain round and its :func:`filter_edges` both read the
    stream, with labels that nothing writes in between unless a
    ``label_corrupt`` fault fires at the round boundary.  So the stream
    is kept on the state with a copy of the labels it read, and reused
    while they are unchanged.
    """
    labels = state.C
    cached = state.label_stream
    if cached is not None and np.array_equal(cached[0], labels):
        return cached[1], cached[2]
    graph, ws = state.graph, state.workspace
    # Shifted by one so that an UNVISITED label is counted too.
    major = np.bincount(np.add(labels, 1, dtype=np.intp)).argmax() - 1
    minor = labels != major
    sources = minor.nonzero()[0]
    counts = ws.take(graph.degrees, sources)
    if (
        int(counts.sum()) * _MINOR_EDGE_SHARE <= graph.targets.size
        and graph.sorted_adjacency
    ):
        dst, first = _minor_side_stream(state, minor, sources, counts)
    else:
        dst, first = _two_label_stream(state)
    state.label_stream = (labels.copy(), dst, first)
    return dst, first


def _minor_side_stream(
    state: "DecompState", minor: np.ndarray, sources: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The label stream from the edges of the *minor* vertices only.

    *sources* are the vertices where *minor* is set, *counts* their
    degrees.  Their edges whose two labels differ are the differing
    edges with a minor source.  A differing edge with a major source
    ends at a minor vertex: it is the mirror of a kept edge into a
    major vertex (the graph is symmetric, as every decomposition
    input).  On strictly ascending lists storage order is the order of
    the packed keys ``(src << b) | dst``, so one sort of the kept edges
    and their mirrors gives the stream.  O(q log q) for the q minor
    edges, plus O(n) for ``first``.
    """
    graph, labels, ws = state.graph, state.C, state.workspace
    n = graph.num_vertices
    at = ragged_positions(ws.take(graph.offsets, sources), counts)
    dst = ws.take(graph.targets, at)
    del at
    differ = ws.take(labels, dst) != ws.take(labels, sources).repeat(counts)
    keep = differ.nonzero()[0]
    src = sources.repeat(counts).take(keep)
    dst = dst.take(keep)
    back = (~ws.take(minor, dst)).nonzero()[0]
    bits = max(n - 1, 0).bit_length()
    keys = np.empty(src.size + back.size, dtype=np.int64)
    own, mirrors = keys[: src.size], keys[src.size :]
    np.left_shift(src, bits, out=own)
    own |= dst
    np.left_shift(dst.take(back), bits, out=mirrors)
    mirrors |= src.take(back)
    del src, dst, back, own, mirrors
    keys.sort()
    # first[v + 1] counts the edges out of vertices up to v.
    first = np.bincount((keys >> bits) + 1, minlength=n + 1)
    first.cumsum(out=first)
    keys &= (1 << bits) - 1
    return keys, first


def _two_label_stream(state: "DecompState") -> Tuple[np.ndarray, np.ndarray]:
    """The label stream from both labels of every edge of the CSR.

    Read in ``C``'s narrow type (:func:`~repro.engine.core.label_dtype`).
    O(m) on any adjacency order.
    """
    graph, labels, ws = state.graph, state.C, state.workspace
    differ = ws.take(labels, graph.targets) != labels.repeat(graph.degrees)
    at = differ.nonzero()[0]
    return ws.take(graph.targets, at), at.searchsorted(graph.offsets)


def _keep_differing(
    state: "DecompState", vertices: np.ndarray, keep_stream: bool
) -> None:
    """Keep the differing edges of *vertices*, read off :func:`_label_stream`.

    In *vertices* order and adjacency order within each vertex: the
    edges, in the order, that expanding *vertices* and comparing the
    labels per edge would keep.  Only the vertices that own a
    differing edge are gathered past one byte each.  The stream stays
    on the state for a later reader only if *keep_stream*; otherwise
    it is freed before the kept arrays, which outlive the level, are
    allocated.  Uncharged: the callers charge the classification their
    PRAM step runs.
    """
    stream, first = _label_stream(state)
    if not keep_stream:
        state.label_stream = None
    C, ws = state.C, state.workspace
    owners = ws.take(first[1:] != first[:-1], vertices).nonzero()[0]
    sources = vertices.take(owners)
    starts = ws.take(first, sources)
    kept = ws.take(first[1:], sources)
    kept -= starts
    dst = ws.take(stream, ragged_positions(starts, kept))
    del stream, first, starts
    state.keep_inter(
        ws.take(C, sources).repeat(kept),
        ws.take(C, dst),
        sources.repeat(kept),
        dst,
    )


def filter_edges(state: "DecompState", deferred: List[np.ndarray]) -> None:
    """The post-processing phase: classify every deferred edge.

    *deferred* holds the frontiers of the dense rounds; their out-edges
    were never inspected write-based.  The paper finds them by a sign
    bit on the edge array and streams that array once; this pass reads
    the level's differing edges in storage order instead
    (:func:`_label_stream`, which the level's drain round may have
    built already), then gathers the differing edges of the
    deferred vertices only, in deferred order and adjacency order
    within each vertex.

    It keeps exactly the edges, in exactly the order, that expanding
    the concatenated frontiers and comparing labels per edge would, and
    charges what that expansion plus a two-label scan of its *E* edges
    costs on the PRAM: the deferred vertices' ragged gather
    (:func:`~repro.graphs.csr.charge_expansion`), a ``scan`` of ``2E``
    labels and the ``log2(E + 1)`` barrier.  The scan of the
    non-deferred edges is host execution, not charged: the paper's pass
    skips them by their sign bit.

    So the host reads the minor vertices' edges, or every edge of the
    CSR (:func:`_label_stream`), once per level whatever *E* is, except
    on a level that ends in one partition (:func:`_one_partition`): no
    edge's two labels differ there, and nothing is streamed but the
    charge is the same.
    """
    if not deferred:
        return
    vertices = np.concatenate(deferred)
    size = vertices.size
    if size == 0:
        return
    C, tracker, ws = state.C, state.tracker, state.workspace
    edges = int(ws.take(state.graph.degrees, vertices).sum())
    state.edges_inspected += edges
    charge_expansion(tracker, size, edges)
    tracker.add("scan", work=float(2 * edges), depth=1.0)
    if edges and not _one_partition(C):
        _keep_differing(state, vertices, keep_stream=False)
    end_round(edges, tracker=tracker)


def bottom_up_step(
    graph: "CSRGraph",
    frontier_bitmap: np.ndarray,
    unvisited: np.ndarray,
    workspace: "Optional[NullWorkspace]" = None,
    *,
    tracker: "Optional[CostTracker]" = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The read-based (bottom-up) sweep every pull round runs.

    Each vertex of *unvisited* (sorted packed ids) scans its neighbors
    in adjacency order and stops at the first one set in
    *frontier_bitmap*, which it adopts.  Returns ``(new_vertices,
    their_parents, edges_examined)``: the vertices that hit, ascending,
    each one's first frontier neighbor, and the edge inspections up to
    each early exit (the whole list when there is no hit).

    The sweep reads each list in chunks that grow geometrically
    (:data:`_FIRST_CHUNK` edges, then ``_CHUNK_GROWTH`` times more per
    pass) and retires a vertex at its first hit or when its list runs
    out, so it gathers a small multiple of the edges it examines, not
    every edge of every unvisited vertex.  Once the still-scanning
    vertices' remaining edges are few (:func:`_full_pass`), one pass
    reads all of them.

    Each vertex is written by its own processor only, so there is no
    race to resolve: the sweep charges one streaming ``scan`` of the
    examined edges plus one step per vertex, and nothing when
    *unvisited* is empty.  The callers charge, and declare to the
    sanitizer, their own stores.  *tracker* defaults to the active
    context's.
    """
    if tracker is None:
        tracker = current_context().tracker
    ws = workspace if workspace is not None else NULL_WORKSPACE
    if unvisited.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0
    starts = ws.take(graph.offsets, unvisited)
    left = ws.take(graph.degrees, unvisited)
    # scanning: positions in *unvisited* of the vertices still scanning
    # (None while that is all of them).
    scanning: Optional[np.ndarray] = None
    won: List[np.ndarray] = []
    adopted: List[np.ndarray] = []
    examined = 0
    chunk = _FIRST_CHUNK
    while True:
        remaining = int(left.sum())
        final = _full_pass(remaining, left.size)
        take = left if final else np.minimum(left, chunk)
        # The slices' bounds in the gathered stream, then the ragged
        # gather itself (as in graphs.csr.ragged_positions, reusing the
        # bounds).
        ends = take.cumsum()
        begins = ends - take
        total = int(ends[-1])
        pos = (starts - begins).repeat(take)
        pos += np.arange(total, dtype=np.int64)
        dst = ws.take(graph.targets, pos)
        hits = ws.take(frontier_bitmap, dst).nonzero()[0]
        # Each slice's first hit is the first hit at or after its begin,
        # if that lies before its end; a sentinel past the stream's end
        # stands for no hit.
        hit_at = np.append(hits, total).take(np.searchsorted(hits, begins))
        hit = hit_at < ends
        hitter = hit.nonzero()[0]
        hit_at = hit_at.take(hitter)
        # A hitter scans up to and including its first hit.
        examined += total - int((ends.take(hitter) - hit_at).sum()) + hitter.size
        won.append(hitter if scanning is None else scanning.take(hitter))
        adopted.append(ws.take(dst, hit_at))
        if final:
            break
        left -= take
        starts += take
        hit |= left == 0
        keep = (~hit).nonzero()[0]
        if keep.size == 0:
            break
        scanning = keep if scanning is None else scanning.take(keep)
        starts, left = starts.take(keep), left.take(keep)
        chunk *= _CHUNK_GROWTH
    tracker.add("scan", work=float(examined + unvisited.size), depth=1.0)
    if len(won) == 1:
        return unvisited.take(won[0]), adopted[0], examined
    positions = np.concatenate(won)
    order = positions.argsort()
    return (
        unvisited.take(positions.take(order)),
        np.concatenate(adopted).take(order),
        examined,
    )
