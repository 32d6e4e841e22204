"""The one-partition early-outs of ``arb_round`` and ``filter_edges``.

A level that ends in one partition leaves one label in every entry of
``C`` (:func:`~repro.engine.kernels._one_partition`).  Then no edge's
two labels differ and no target is unvisited, so the hybrids'
``filterEdges`` pass and a push round run after every vertex is
visited (a drain round) have nothing to keep or race: both skip their
host work and charge what the full kernel charges.

The reference here is the same code with the predicate forced false,
so every round takes the full path.  Both runs must agree on the
labels, the four inter-edge arrays in order, ``edges_inspected``,
``dense_rounds``, ``frontier_sizes``, every tracker bucket,
``sync_count`` and the sanitizer's race list, under both backends.
``arb_round``'s charge is also recomputed from the frontier size
``|F|``, its edges ``E``, the raced edges ``R`` and the winners ``W``
(``docs/cost_model.md``, charge table) over the test zoo.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext

import numpy as np
import pytest

from repro.connectivity.decomp_cc import decomp_cc
from repro.decomp.base import DecompState
from repro.engine import kernels, tiebreak
from repro.engine.backend import resolve_backend
from repro.engine.core import UNVISITED
from repro.fuzz import CaseGraph, build_case_graph
from repro.graphs.generators import clique, disjoint_union_edges, empty_graph
from repro.pram.cost import CostTracker
from repro.pram.sanitizer import PramSanitizer
from repro.resilience.faults import parse_fault_plan
from repro.runtime.context import current_context

from .conftest import _ZOO

BACKENDS = ["reference", "fast"]

VARIANTS = {"decomp-arb-hybrid-CC": "arb-hybrid", "decomp-min-hybrid-CC": "min-hybrid"}


def _bridged(k1, k2):
    params = {"clique1": k1, "clique2": k2}
    return build_case_graph(
        CaseGraph(kind="family", family="bridged-cliques", params=params)
    )


class TestPredicate:
    def test_one_label(self):
        assert kernels._one_partition(np.full(5, 3, dtype=np.int64))

    def test_all_unvisited(self):
        assert not kernels._one_partition(np.full(5, UNVISITED, dtype=np.int64))

    def test_single_vertex(self):
        assert kernels._one_partition(np.zeros(1, dtype=np.int64))
        assert not kernels._one_partition(np.array([UNVISITED]))

    def test_two_labels(self):
        assert not kernels._one_partition(np.array([2, 2, 4, 2], dtype=np.int64))

    def test_one_label_beside_unvisited(self):
        assert not kernels._one_partition(np.array([0, UNVISITED, 0], dtype=np.int64))

    def test_empty(self):
        assert not kernels._one_partition(np.zeros(0, dtype=np.int64))


def _run(monkeypatch, graph, algorithm, backend, *, seed, beta, fault, reference):
    """One sanitized decomp-CC run; every observable, and the early-outs taken."""
    one_partition = kernels._one_partition
    taken = set()

    def predicate(C):
        if reference:
            return False
        hit = one_partition(C)
        if hit:
            taken.add(sys._getframe(1).f_code.co_name)
        return hit

    levels = []
    finish = DecompState.finish

    def recording_finish(state):
        dec = finish(state)
        levels.append(
            (
                dec.labels.tolist(),
                dec.inter_src.tolist(),
                dec.inter_dst.tolist(),
                dec.orig_src.tolist(),
                dec.orig_dst.tolist(),
                dec.edges_inspected,
                list(dec.dense_rounds),
                list(dec.frontier_sizes),
            )
        )
        return dec

    monkeypatch.setattr(kernels, "_one_partition", predicate)
    monkeypatch.setattr(DecompState, "finish", recording_finish)
    sanitizer = PramSanitizer(halt_on_race=False)
    ctx = current_context().child(
        tracker=CostTracker(), backend=resolve_backend(backend), sanitizer=sanitizer
    )
    plan = parse_fault_plan(fault, seed=4)
    with ctx.activate(), plan.activate() if plan else nullcontext():
        result = decomp_cc(graph, beta=beta, variant=VARIANTS[algorithm], seed=seed)
    assert plan is None or plan.fired
    monkeypatch.undo()
    observed = (
        result.labels.tolist(),
        levels,
        ctx.tracker.snapshot(),
        ctx.tracker.sync_count,
        [repr(race) for race in sanitizer.races],
    )
    return observed, taken


# (name, graph, algorithm, beta, seed, fault, the early-outs the run takes)
_CASES = [
    (
        "drain-after-dense",
        _bridged(5, 4),
        "decomp-arb-hybrid-CC",
        0.2,
        2,
        None,
        {"arb_round", "filter_edges"},
    ),
    (
        "filter-after-dense-min",
        _bridged(5, 4),
        "decomp-min-hybrid-CC",
        0.2,
        2,
        None,
        {"filter_edges"},
    ),
    ("no-dense-round", clique(12), "decomp-arb-hybrid-CC", 0.2, 1, None, {"arb_round"}),
    # Level 0 keeps the bridge between two partitions; the contracted
    # level is one partition.
    (
        "two-partitions-then-one",
        _bridged(3, 4),
        "decomp-arb-hybrid-CC",
        0.2,
        3,
        None,
        {"arb_round"},
    ),
    (
        "two-components",
        disjoint_union_edges([clique(6), clique(5)]),
        "decomp-arb-hybrid-CC",
        0.2,
        1,
        None,
        set(),
    ),
    (
        "isolated-vertices",
        disjoint_union_edges([clique(9), empty_graph(3)]),
        "decomp-arb-hybrid-CC",
        0.2,
        2,
        None,
        set(),
    ),
    (
        "label-corrupt",
        _bridged(5, 4),
        "decomp-arb-hybrid-CC",
        0.2,
        2,
        "label_corrupt:p=1.0",
        {"arb_round", "filter_edges"},
    ),
    (
        "cas-flip",
        _bridged(8, 4),
        "decomp-arb-hybrid-CC",
        0.2,
        4,
        "cas_flip:p=1.0",
        {"arb_round", "filter_edges"},
    ),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_early_outs_match_the_full_kernels(case, backend, monkeypatch):
    _name, graph, algorithm, beta, seed, fault, expected = case
    kwargs = dict(seed=seed, beta=beta, fault=fault)
    got, taken = _run(monkeypatch, graph, algorithm, backend, reference=False, **kwargs)
    want, _ = _run(monkeypatch, graph, algorithm, backend, reference=True, **kwargs)
    assert taken == expected
    if fault is not None and fault.startswith("cas_flip"):
        assert got[-1], "the flips surface as cas-order races"
    assert got == want


def _depth(k):
    return float(max(1, int(np.ceil(np.log2(k + 1)))))


def expected_arb_charge(frontier, edges, raced, winners):
    """``arb_round``'s charge as a formula of ``|F|``, ``E``, ``R``, ``W``.

    The frontier expansion (a read per vertex and per edge, a prefix
    sum over the vertices), the two label gathers, one CAS per raced
    edge, the winners' label scatter, the re-read of every edge but the
    winners' and the barrier packing the kept edges and next frontier.
    A one-partition round is the same formula with ``R = W = 0``.
    """
    want = {}

    def add(kind, work, depth):
        w, d = want.get(kind, (0.0, 0.0))
        want[kind] = (w + float(work), d + depth)

    if frontier:
        add("gather", edges + frontier, 1.0)
        add("scan", frontier, _depth(frontier))
    if edges:
        add("gather", 2 * edges, 1.0)
        add("atomic", raced, 1.0)
        add("scatter", winners, 1.0)
        add("gather", edges - winners, 1.0)
    add("scan", 0, _depth(edges))
    return want


@pytest.mark.parametrize("backend", BACKENDS)
def test_arb_round_charge_recomputed_over_zoo(backend, monkeypatch):
    arb_round = kernels.arb_round
    rounds = {"one-partition": 0, "full": 0}

    def checked_round(state):
        frontier, C = state.frontier, state.C
        _counts, dst = state.graph.expand_targets(frontier, charge_cost=False)
        raced = int((C.take(dst) == UNVISITED).sum())
        labels = np.unique(C)
        one_label = (
            state.visited >= state.n and labels.size == 1 and labels[0] != UNVISITED
        )
        tracker = state.tracker
        before, syncs = tracker.snapshot(), tracker.sync_count
        winners = arb_round(state)
        got = {}
        for (phase, kind), (work, depth) in tracker.snapshot().items():
            w0, d0 = before.get((phase, kind), (0.0, 0.0))
            if (work - w0, depth - d0) != (0.0, 0.0):
                w, d = got.get(kind, (0.0, 0.0))
                got[kind] = (w + work - w0, d + depth - d0)
        assert got == expected_arb_charge(frontier.size, dst.size, raced, winners.size)
        assert tracker.sync_count == syncs + 1
        rounds["one-partition" if one_label else "full"] += 1
        return winners

    monkeypatch.setattr(tiebreak, "arb_round", checked_round)
    for graph in _ZOO.values():
        for variant in ("arb", "arb-hybrid"):
            ctx = current_context().child(
                tracker=CostTracker(), backend=resolve_backend(backend)
            )
            with ctx.activate():
                decomp_cc(graph, variant=variant, seed=2)
    assert rounds["one-partition"] >= 20
    assert rounds["full"] >= 200
