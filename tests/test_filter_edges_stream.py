"""The storage-order filterEdges pass against the ragged pass it replaced.

:func:`~repro.engine.kernels.filter_edges` classifies the out-edges of
the hybrids' dense-round frontiers (the deferred vertices) by one
label comparison over the whole CSR in storage order.  The pass it
replaced re-expanded the concatenated frontiers through the ragged
gather and compared labels per expanded edge; it is kept here as
:func:`ragged_filter_edges`.  Both must emit the same four inter-edge
arrays, element for element and in the same order, count the same
inspected edges and charge the same buckets, under both backends.

The charge itself is recomputed from the deferred vertex count ``|D|``
and their edge count ``E`` by :func:`expected_charge`, over the test
zoo's hybrid runs (``docs/cost_model.md``, charge table).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.connectivity.decomp_cc import decomp_cc
from repro.decomp import base as decomp_base
from repro.decomp.base import DecompState
from repro.engine import kernels
from repro.engine.backend import use_backend
from repro.engine.core import end_round
from repro.engine.kernels import _edge_sources, filter_edges
from repro.graphs.builder import from_edges
from repro.graphs.generators import (
    clique,
    disjoint_union_edges,
    empty_graph,
    orkut_like,
    star_graph,
)
from repro.pram.cost import CostTracker, tracking

from .conftest import _ZOO

BACKENDS = ["reference", "fast"]

COMMON = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def ragged_filter_edges(state, deferred):
    """The replaced pass: expand the deferred frontiers, compare per edge."""
    if not deferred:
        return
    vertices = np.concatenate(deferred)
    if vertices.size == 0:
        return
    C, tracker, ws = state.C, state.tracker, state.workspace
    counts, dst = state.graph.expand_targets(vertices, workspace=ws, tracker=tracker)
    edges = int(dst.size)
    state.edges_inspected += edges
    cu = np.repeat(ws.take(C, vertices), counts)
    cw = ws.take(C, dst)
    tracker.add("scan", work=float(2 * edges), depth=1.0)
    keep = (cu != cw).nonzero()[0]
    if keep.size:
        state.keep_inter(
            cu[keep], cw[keep], _edge_sources(vertices, counts, keep), dst[keep]
        )
    end_round(edges, tracker=tracker)


def expected_charge(deferred_vertices, edges):
    """The filterEdges charge as a formula of ``|D|`` and ``E``.

    The ragged gather of the deferred edges (one read per vertex and
    per edge at unit depth, a prefix sum over the vertices), one scan
    reading both labels of every edge, and the barrier packing the kept
    edges.  Nothing at all when no vertex was deferred.
    """
    if deferred_vertices == 0:
        return {}

    def depth(k):
        return float(max(1, int(np.ceil(np.log2(k + 1)))))

    return {
        "gather": (float(edges + deferred_vertices), 1.0),
        "scan": (
            float(deferred_vertices + 2 * edges),
            depth(deferred_vertices) + 1.0 + depth(edges),
        ),
    }


def _state(graph, labels, backend):
    with use_backend(backend), tracking():
        state = DecompState(graph, 0.2, 1, "permutation")
    state.C[:] = labels
    state.tracker = CostTracker()
    return state


def _run(fn, graph, labels, deferred, backend):
    state = _state(graph, labels, backend)
    fn(state, [np.asarray(d, dtype=np.int64) for d in deferred])
    dec = state.finish()
    arrays = [dec.inter_src, dec.inter_dst, dec.orig_src, dec.orig_dst]
    return arrays, state.edges_inspected, state.tracker


def _assert_matches_reference(graph, labels, deferred, backend):
    got, inspected, tracker = _run(filter_edges, graph, labels, deferred, backend)
    want, want_inspected, want_tracker = _run(
        ragged_filter_edges, graph, labels, deferred, backend
    )
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert a.tolist() == b.tolist()
    assert inspected == want_inspected
    assert tracker.snapshot() == want_tracker.snapshot()
    assert tracker.sync_count == want_tracker.sync_count
    return got


def _labels(n, seed, components=3):
    # Every vertex labeled with the id of one of a few "centers".
    rng = np.random.default_rng(seed)
    centers = rng.choice(n, size=min(n, components), replace=False)
    return centers[rng.integers(0, centers.size, size=n)]


def _named_cases():
    k = clique(8)
    yield "no-deferred-list", k, _labels(8, 1), []
    yield "empty-frontiers", k, _labels(8, 1), [[], []]
    # Vertices 6-9 have no edges at all.
    mixed = disjoint_union_edges([clique(6), empty_graph(4)])
    yield "degree-zero", mixed, _labels(10, 2), [[7, 9], [6]]
    yield "degree-zero-beside-edges", mixed, _labels(10, 2), [[8, 0], [9, 3]]
    # The hub's label differs from every leaf's: all its edges are inter.
    star = star_graph(12)
    hub_alone = np.ones(12, dtype=np.int64)
    hub_alone[0] = 0
    yield "every-edge-inter", star, hub_alone, [[0]]
    yield "all-deferred", k, _labels(8, 3), [np.arange(8)]
    union = disjoint_union_edges([clique(5), star_graph(7), clique(4)])
    yield (
        "frontiers-out-of-id-order",
        union,
        _labels(16, 4, components=5),
        [[14, 2, 9], [0, 15], [7, 5, 11, 1]],
    )
    isolated = disjoint_union_edges([empty_graph(3), clique(4), empty_graph(3)])
    yield "isolated", isolated, _labels(10, 5), [np.arange(10)]
    # More than 2**15 vertices: the narrowed labels must be int32, and
    # the labels of the clique's vertices are ids above 2**15.
    wide = disjoint_union_edges([empty_graph(40_000), clique(6)])
    assert np.min_scalar_type(-wide.num_vertices) == np.int32
    wide_labels = np.arange(40_006, dtype=np.int64)
    wide_labels[40_000:40_003] = 40_005
    yield "labels-above-2^15", wide, wide_labels, [[40_001, 40_004], [7, 40_005]]
    # Most vertices read UNVISITED (-1), so the stream's major label is
    # -1; the other labels sit on both sides of it.
    star = star_graph(9)
    unvisited = np.full(9, -1, dtype=np.int64)
    unvisited[[0, 3, 5]] = [4, 0, 4]
    yield "unvisited-major", star, unvisited, [[0, 3], [5, 1]]


_CASES = list(_named_cases())
_BY_NAME = {case[0]: case for case in _CASES}


#: ``_MINOR_EDGE_SHARE`` values that send every label stream down one
#: of its two ways: the byte gather with the minor vertices' edges
#: compared apart (1), or both labels of every edge compared.
STREAM_WAYS = {"minor-gather": 1, "both-labels": 1 << 62}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_named_case_matches_ragged_filter(case, backend):
    _name, graph, labels, deferred = case
    _assert_matches_reference(graph, labels, deferred, backend)


@pytest.mark.parametrize("way", list(STREAM_WAYS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_named_case_either_stream_way(case, backend, way, monkeypatch):
    _name, graph, labels, deferred = case
    monkeypatch.setattr(kernels, "_MINOR_EDGE_SHARE", STREAM_WAYS[way])
    _assert_matches_reference(graph, labels, deferred, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_edge_inter_keeps_all_of_them(backend):
    star = star_graph(12)
    labels = np.ones(12, dtype=np.int64)
    labels[0] = 0
    (cu, cw, src, dst), inspected, _ = _run(filter_edges, star, labels, [[0]], backend)
    assert inspected == 11
    assert src.tolist() == [0] * 11 and dst.tolist() == list(range(1, 12))
    assert cu.tolist() == [0] * 11 and cw.tolist() == [1] * 11


@pytest.mark.parametrize("backend", BACKENDS)
def test_wide_labels_survive_the_narrowing(backend):
    _name, graph, labels, deferred = _BY_NAME["labels-above-2^15"]
    (cu, cw, _src, _dst), _, _ = _run(filter_edges, graph, labels, deferred, backend)
    assert cu.size and max(cu.max(), cw.max()) == 40_005


@st.composite
def filter_inputs(draw, max_vertices=40, max_edges=150):
    """A graph with an optional hub, labels and random deferred frontiers."""
    n = draw(st.integers(1, max_vertices))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        pairs += [(hub, v) for v in range(n)]
    # An edgeless draw becomes one self-loop, which the builder drops.
    src, dst = (np.array(side, dtype=np.int64) for side in zip(*pairs or [(0, 0)]))
    graph = from_edges(src, dst, num_vertices=n)
    components = draw(st.integers(1, n))
    labels = _labels(n, draw(st.integers(0, 1 << 16)), components)
    order = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    size = draw(st.integers(0, n))
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=4)))
    deferred = np.split(order[:size], cuts)
    return graph, labels, deferred


@pytest.mark.parametrize("backend", BACKENDS)
@settings(**COMMON)
@given(case=filter_inputs())
def test_random_deferred_sets_match_ragged_filter(case, backend):
    graph, labels, deferred = case
    _assert_matches_reference(graph, labels, deferred, backend)


@pytest.mark.parametrize("way", list(STREAM_WAYS))
@pytest.mark.parametrize("backend", BACKENDS)
@settings(**COMMON)
@given(case=filter_inputs())
def test_random_deferred_sets_either_stream_way(case, backend, way):
    graph, labels, deferred = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_MINOR_EDGE_SHARE", STREAM_WAYS[way])
        _assert_matches_reference(graph, labels, deferred, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pass_allocates_no_edge_sized_positions(backend):
    # Every vertex deferred and almost no inter edge: the ragged pass
    # would build an int64 position per deferred edge (8 bytes each,
    # and more for the gathered targets and labels).  The storage-order
    # pass holds one byte per edge, whether its target's label is a
    # minor one, plus vertex 0's own edges.  Vertex 0 gets a label of
    # its own: with one label everywhere the pass would stream nothing.
    graph = orkut_like(2000, 20.0, seed=3)
    m = graph.targets.size
    assert np.min_scalar_type(-graph.num_vertices) == np.int16
    labels = np.zeros(graph.num_vertices, dtype=np.int64)
    labels[0] = 1
    deferred = [np.arange(graph.num_vertices, dtype=np.int64)]

    def peak(fn):
        state = _state(graph, labels, backend)
        tracemalloc.start()
        try:
            fn(state, deferred)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(filter_edges) < 8 * m
    assert peak(ragged_filter_edges) > 8 * m


@pytest.mark.parametrize("backend", BACKENDS)
def test_charge_recomputed_from_sizes_over_zoo(backend, monkeypatch):
    calls = []

    def spy(state, deferred):
        vertices = np.concatenate(deferred) if deferred else np.zeros(0, np.int64)
        calls.append((vertices.size, int(state.graph.degrees[vertices].sum())))
        filter_edges(state, deferred)

    monkeypatch.setattr(decomp_base, "filter_edges", spy)
    exercised = 0
    runs = [
        (name, graph, variant, threshold)
        for name, graph in _ZOO.items()
        for variant in ("arb-hybrid", "min-hybrid")
        # The paper's 20 % switch, and every round that can pull pulls.
        for threshold in (0.2, 0.0)
    ]
    for name, graph, variant, threshold in runs:
        calls.clear()
        with use_backend(backend), tracking() as tracker:
            decomp_cc(graph, variant=variant, seed=2, dense_threshold=threshold)
        want = {}
        for size, edges in calls:
            buckets = expected_charge(size, edges)
            for kind, (work, depth) in buckets.items():
                w, d = want.get(kind, (0.0, 0.0))
                want[kind] = (w + work, d + depth)
        got = {
            kind: value
            for (phase, kind), value in tracker.snapshot().items()
            if phase == "filterEdges"
        }
        assert got == want, (name, variant, threshold)
        exercised += any(size for size, _ in calls)
    assert exercised >= 10
