"""The shared round kernels: one vectorized CRCW step batch each.

These are the bodies of every level-synchronous round in the system,
written once.  The decomposition kernels (:func:`arb_round`,
:func:`min_round`, :func:`dense_round`, :func:`filter_edges`) operate
on a :class:`~repro.decomp.base.DecompState`; :func:`bottom_up_step`
is the read-based sweep shared by the BFS family.  The engine's policy
objects dispatch to them.

Execution-backend note: the gathers, compressions and CAS races go
through the state's :mod:`~repro.engine.workspace`, whose class is the
backend's choice of NumPy execution (checked or unchecked gathers,
sort- or scatter-based races); the rest is plain NumPy.  The kernels
also resolve the ambient cost tracker and fault plan once per round
and pass them into the primitives, so the innermost loops perform no
repeated context-var reads.

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


def _edge_sources(
    frontier: np.ndarray, counts: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """The frontier vertex owning each edge position *pos* of an expansion.

    :meth:`~repro.graphs.csr.CSRGraph.expand_targets` lays each frontier
    vertex's ``counts[i]`` edges out in turn, so the owner of position
    ``p`` is the first vertex whose inclusive-cumsum end is ``> p``.
    One binary search per position: the kernels call this on the few
    edges they keep, never on the whole expansion.
    """
    return frontier[np.searchsorted(np.cumsum(counts), pos, side="right")]


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
    kept edges only.
    """
    tracker = current_context().tracker
    plan = current_context().fault_plan
    ws = state.workspace
    graph, C, frontier = state.graph, state.C, state.frontier
    counts, dst = graph.expand_targets(frontier, workspace=ws)
    edges = int(dst.size)
    state.edges_inspected += edges
    if edges == 0:
        end_round()
        return np.zeros(0, dtype=np.int64)
    cu = np.repeat(ws.take(C, frontier), counts)
    cw = ws.take(C, dst)
    tracker.add("gather", work=float(2 * edges), depth=1.0)

    # CAS races on unvisited targets: one arbitrary winner each.
    unvis_pos = (cw == UNVISITED).nonzero()[0]
    race = ws.take(dst, unvis_pos)
    win_local, winners = first_winner(race, workspace=ws, tracker=tracker, plan=plan)
    C[winners] = cu[unvis_pos[win_local]]
    tracker.add("scatter", work=float(winners.size), depth=1.0)
    state.visited += int(winners.size)

    # Re-read the raced targets' labels; the winner edges are charged
    # no second read (they classify as intra by construction).
    cw[unvis_pos] = ws.take(C, race)
    tracker.add("gather", work=float(edges - winners.size), depth=1.0)
    keep = (cw != cu).nonzero()[0]
    state.keep_inter(
        cu[keep], cw[keep], _edge_sources(frontier, counts, keep), dst[keep]
    )
    # End-of-round packing of kept edges / next frontier.
    end_round(edges)
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
    """
    ctx = current_context()
    tracker = ctx.tracker
    plan = ctx.fault_plan
    ws = state.workspace
    graph, C = state.graph, state.C
    frac = state.schedule.frac

    # ---- Phase 1: writeMin marking + classification of visited targets.
    with tracker.phase("bfsPhase1"):
        src, dst = graph.expand(state.frontier, workspace=ws)
        edges = int(src.size)
        state.edges_inspected += edges
        if edges == 0:
            end_round()
            return np.zeros(0, dtype=np.int64)
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
        keys = ws.take(frac, cu_unvis)
        keys = encode_pair(keys, cu_unvis, check=not trusted_keys, out=keys)
        write_min(pair, dst_unvis, keys, tracker=tracker, workspace=ws)

        # Edges to visited targets resolve now: inter iff labels differ.
        cw[unvis_pos] = cu_unvis
        keep_pos = (cw != cu).nonzero()[0]
        state.keep_inter(
            cu.take(keep_pos), cw.take(keep_pos), src.take(keep_pos), dst.take(keep_pos)
        )
        # Phase-1 output compaction (the paper's in-place E overwrite).
        end_round(edges)

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
            end_round()
            return np.zeros(0, dtype=np.int64)
        winner_center = ws.take(pair, dst_unvis)
        winner_center &= _PAIR_PAYLOAD_MASK
        won = winner_center == cu_unvis

        # Winning component's vertices race one CAS to add w once.
        won_pos = won.nonzero()[0]
        first_pos, new_vertices = first_winner(
            ws.take(dst_unvis, won_pos),
            workspace=ws,
            tracker=tracker,
            plan=plan,
        )
        C[new_vertices] = winner_center.take(won_pos.take(first_pos))
        # Mark claimed cells so later writeMins cannot touch them
        # (the paper sets C1[w] = -1; our pair array is per-DECOMP and
        # claimed vertices are excluded by C[w] != UNVISITED instead).
        tracker.add("scatter", work=float(new_vertices.size), depth=1.0)
        state.visited += int(new_vertices.size)

        # Losers: inter-component iff the winner differs (it does, by
        # definition of losing) — matches Algorithm 2 lines 32-35.
        lost = (~won).nonzero()[0]
        lose_dst = dst_unvis.take(lost)
        state.keep_inter(
            cu_unvis.take(lost),
            C.take(lose_dst),
            src.take(unvis_pos.take(lost)),
            lose_dst,
        )
        end_round(edges)
    return new_vertices


def dense_round(state: "DecompState") -> np.ndarray:
    """One read-based round: unvisited vertices pull from the frontier.

    Returns the newly visited vertices (next frontier).  Charges the
    early-exit edge count as streaming ``scan`` work — no atomics.
    Tie-break-policy independent: whoever the tie-break rule would pick
    among concurrent writers, the pull sweep adopts the first frontier
    neighbor in adjacency order (a legal arbitrary-CRCW schedule).
    """
    tracker = current_context().tracker
    plan = current_context().fault_plan
    ws = state.workspace
    graph, C = state.graph, state.C

    on_frontier = np.zeros(state.n, dtype=bool)
    on_frontier[state.frontier] = True
    tracker.add("scatter", work=float(state.frontier.size), depth=1.0)

    unvisited = pack_index(C == UNVISITED)
    if unvisited.size == 0:
        end_round()
        return np.zeros(0, dtype=np.int64)
    # charge_cost=False: only the early-exit edge count below is charged.
    src, dst = graph.expand(unvisited, charge_cost=False, workspace=ws)
    hit = ws.take(on_frontier, dst)
    hit_positions = hit.nonzero()[0]
    if hit_positions.size:
        first_pos, winners = first_winner(
            ws.take(src, hit_positions),
            workspace=ws,
            tracker=tracker,
            plan=plan,
        )
        adopted_from = dst[hit_positions[first_pos]]
        C[winners] = C[adopted_from]
        tracker.add("scatter", work=float(winners.size), depth=1.0)
        state.visited += int(winners.size)
    else:
        winners = np.zeros(0, dtype=np.int64)

    # Early-exit accounting: edges scanned up to the first hit (or the
    # whole list when there is none) — this is the work the paper's
    # read-based sweep saves over the write-based one.
    counts = ws.take(graph.offsets, unvisited + 1) - ws.take(graph.offsets, unvisited)
    starts = np.cumsum(counts) - counts
    scanned = counts.astype(np.float64)
    if hit_positions.size:
        order = np.searchsorted(unvisited, winners)
        scanned[order] = (hit_positions[first_pos] - starts[order] + 1).astype(
            np.float64
        )
    examined = int(scanned.sum())
    state.edges_inspected += examined
    tracker.add("scan", work=float(examined + unvisited.size), depth=1.0)
    end_round(examined)
    return winners


def filter_edges(state: "DecompState", deferred: List[np.ndarray]) -> None:
    """The post-processing phase: classify every deferred edge.

    *deferred* holds the frontiers of the dense rounds; their out-edges
    were never inspected write-based, so we stream over them once,
    keeping those whose endpoint labels differ (already relabeled to
    component ids, as everywhere else).  As in :func:`arb_round`, the
    source labels are repeated from the frontier and the source
    vertices recovered for the kept edges only.
    """
    tracker = current_context().tracker
    if not deferred:
        return
    vertices = np.concatenate(deferred)
    if vertices.size == 0:
        return
    C = state.C
    ws = state.workspace
    counts, dst = state.graph.expand_targets(vertices, workspace=ws)
    edges = int(dst.size)
    state.edges_inspected += edges
    cu = np.repeat(ws.take(C, vertices), counts)
    cw = ws.take(C, dst)
    tracker.add("scan", work=float(2 * edges), depth=1.0)
    keep = (cu != cw).nonzero()[0]
    state.keep_inter(
        cu[keep], cw[keep], _edge_sources(vertices, counts, keep), dst[keep]
    )
    end_round(edges)


def bottom_up_step(
    graph: "CSRGraph",
    frontier_bitmap: np.ndarray,
    visited: np.ndarray,
    workspace: "Optional[NullWorkspace]" = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One read-based (bottom-up) BFS round.

    Every unvisited vertex scans its neighbors in adjacency order and
    adopts the first one lying on the current frontier.  Returns
    ``(new_vertices, their_parents, edges_examined)`` where
    *edges_examined* counts edge inspections up to each early exit —
    the quantity the cost model charges.
    """
    tracker = current_context().tracker
    plan = current_context().fault_plan
    ws = workspace if workspace is not None else NULL_WORKSPACE
    unvisited = pack_index(~visited)
    if unvisited.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0
    # charge_cost=False: only the early-exit edge count below is charged.
    src, dst = graph.expand(unvisited, charge_cost=False, workspace=ws)
    hit = ws.take(frontier_bitmap, dst)
    # First frontier-neighbor per source, exploiting expand()'s grouped,
    # adjacency-ordered layout: the first occurrence of each source
    # among the hits is its earliest hit.
    hit_positions = hit.nonzero()[0]
    if hit_positions.size:
        first_pos, winners = first_winner(
            ws.take(src, hit_positions),
            workspace=ws,
            tracker=tracker,
            plan=plan,
        )
        parent_of_winner = dst[hit_positions[first_pos]]
    else:
        first_pos = np.zeros(0, dtype=np.int64)
        winners = np.zeros(0, dtype=np.int64)
        parent_of_winner = np.zeros(0, dtype=np.int64)

    # Early-exit cost: edges scanned = (position of first hit within the
    # source's slice) + 1, or the full degree when there is no hit.
    counts = ws.take(graph.offsets, unvisited + 1) - ws.take(graph.offsets, unvisited)
    starts = np.cumsum(counts) - counts
    scanned = counts.astype(np.float64)
    if winners.size:
        # Map winner vertex id -> its index within `unvisited` to find
        # the slice start of each winner.
        order = np.searchsorted(unvisited, winners)
        local_first = hit_positions[first_pos] - starts[order]
        scanned_winners = (local_first + 1).astype(np.float64)
        scanned[order] = scanned_winners
    edges_examined = int(scanned.sum())
    # Streaming reads, no atomics: the dense sweep's cache-friendliness.
    tracker.add("scan", work=float(edges_examined + unvisited.size), depth=1.0)
    tracker.add("scatter", work=float(winners.size), depth=1.0)
    return winners, parent_of_winner, edges_examined
