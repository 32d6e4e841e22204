"""``min_round``'s two phases and ``bfsPre``, charged as the charge table says.

Each round's charge is recomputed from the sizes the round saw, as
``docs/cost_model.md``'s charge table writes it, and compared with what
the kernel charged, bucket by bucket, over the test zoo's
``decomp-min-CC`` and ``decomp-min-hybrid-CC`` runs under both backends.

The sizes are observed from outside the kernel: the frontier ``F``; its
edges ``E`` (an uncharged expansion); ``R``, the edges whose target was
unvisited when the round began; ``K``, the edges to visited targets
whose two labels differ (phase 1's kept edges); the vertices ``W`` the
round claims; and ``L``, the raced edges whose source's component is
not the one its target joined (phase 2's lost edges; every raced
target is claimed in its round, so the rest, ``R - L``, are the CAS
contenders).  ``bfsPre``'s sizes are the due candidates (the consumed
count's advance) and the fresh centers (the visited count's advance).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.connectivity.decomp_cc import decomp_cc
from repro.decomp.base import DecompState
from repro.engine import tiebreak
from repro.engine.backend import resolve_backend
from repro.engine.core import UNVISITED
from repro.pram.cost import CostTracker
from repro.runtime.context import current_context

from .conftest import _ZOO

BACKENDS = ["reference", "fast"]


def _depth(k):
    return float(max(1, int(np.ceil(np.log2(k + 1)))))


def _delta(tracker, before):
    """The (phase, kind) buckets that moved since *before*, by how much."""
    got = {}
    for key, (work, depth) in tracker.snapshot().items():
        w0, d0 = before.get(key, (0.0, 0.0))
        if (work - w0, depth - d0) != (0.0, 0.0):
            got[key] = (work - w0, depth - d0)
    return got


class _Charges:
    """Accumulates the expected (phase, kind) -> (work, depth) rows."""

    def __init__(self):
        self.rows = {}

    def add(self, phase, kind, work, depth):
        w, d = self.rows.get((phase, kind), (0.0, 0.0))
        self.rows[(phase, kind)] = (w + float(work), d + float(depth))


def expected_min_charge(frontier, edges, raced, kept, winners, lost):
    """``min_round``'s charge as a formula of ``|F|, E, R, K, |W|, L``.

    Phase 1: the frontier expansion (a read per vertex and per edge, a
    prefix sum over the vertices), the source label and the target's
    two-word (delta', center) pair per edge, one writeMin per raced
    edge and the barrier packing its output.  Phase 2: the re-read of
    each raced edge's pair and of each kept edge's sign bit, one CAS
    per contender (a raced edge that won the writeMin), the claim
    store and the barrier.  With ``E = 0`` only phase 1's barrier
    remains; with ``R = 0`` phase 2 stops after its re-read.
    """
    want = _Charges()
    one, two = "bfsPhase1", "bfsPhase2"
    if frontier:
        want.add(one, "gather", edges + frontier, 1)
        want.add(one, "scan", frontier, _depth(frontier))
    if edges == 0:
        want.add(one, "scan", 0, 1)
        return want.rows
    want.add(one, "gather", 3 * edges, 1)
    want.add(one, "atomic", raced, 1)
    want.add(one, "scan", 0, _depth(edges))
    want.add(two, "gather", 2 * raced + kept, 1)
    if raced == 0:
        want.add(two, "scan", 0, 1)
        return want.rows
    want.add(two, "atomic", raced - lost, 1)
    want.add(two, "scatter", winners, 1)
    want.add(two, "scan", 0, _depth(edges))
    return want.rows


def expected_pre_charge(due, fresh):
    """``bfsPre``'s charge: read the due candidates, seed the fresh ones.

    One read per due candidate of the start order (always charged, at
    unit depth, even when none is due), the fresh centers' self-label
    store when there are any, and the unit round-boundary barrier.
    """
    want = _Charges()
    want.add("bfsPre", "gather", due, 1)
    if fresh:
        want.add("bfsPre", "scatter", fresh, 1)
    want.add("bfsPre", "scan", 0, 1)
    return want.rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_min_round_and_bfs_pre_charges_recomputed_over_zoo(backend, monkeypatch):
    min_round = tiebreak.min_round
    start_new_centers = DecompState.start_new_centers
    seen = {"rounds": 0, "raced": 0, "kept": 0, "lost": 0, "pre": 0, "fresh": 0}

    def checked_round(state, pair, trusted_keys=False):
        frontier = state.frontier
        counts, dst = state.graph.expand_targets(frontier, charge_cost=False)
        src_label = state.C.take(frontier).repeat(counts)
        dst_label = state.C.take(dst)
        raced = dst_label == UNVISITED
        kept = int((~raced & (src_label != dst_label)).sum())
        tracker = state.tracker
        before, syncs = tracker.snapshot(), tracker.sync_count
        winners = min_round(state, pair, trusted_keys)
        joined = state.C.take(dst.compress(raced))
        lost = int((joined != src_label.compress(raced)).sum())
        want = expected_min_charge(
            frontier.size, dst.size, int(raced.sum()), kept, winners.size, lost
        )
        assert _delta(tracker, before) == want
        assert tracker.sync_count == syncs + (2 if dst.size else 1)
        seen["rounds"] += 1
        seen["raced"] += int(raced.sum())
        seen["kept"] += kept
        seen["lost"] += lost
        return winners

    def checked_pre(state, next_frontier):
        tracker = state.tracker
        before, syncs = tracker.snapshot(), tracker.sync_count
        consumed, visited = state.consumed, state.visited
        start_new_centers(state, next_frontier)
        due = max(0, state.consumed - consumed)
        fresh = state.visited - visited
        assert _delta(tracker, before) == expected_pre_charge(due, fresh)
        assert tracker.sync_count == syncs + 1
        seen["pre"] += 1
        seen["fresh"] += fresh

    monkeypatch.setattr(tiebreak, "min_round", checked_round)
    monkeypatch.setattr(DecompState, "start_new_centers", checked_pre)
    for graph in _ZOO.values():
        for variant in ("min", "min-hybrid"):
            ctx = current_context().child(
                tracker=CostTracker(), backend=resolve_backend(backend)
            )
            with ctx.activate():
                decomp_cc(graph, variant=variant, seed=2)
    # The zoo exercises every row: rounds that race, keep and lose
    # edges, and round boundaries that seed centers.
    assert seen["rounds"] >= 200 and seen["pre"] >= 200
    assert min(seen["raced"], seen["kept"], seen["lost"], seen["fresh"]) > 0
