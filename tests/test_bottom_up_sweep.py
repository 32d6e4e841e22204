"""The chunked pull sweep against the expand-everything sweep it replaced.

:func:`~repro.engine.kernels.bottom_up_step` reads each unvisited
vertex's adjacency list in geometrically growing chunks and retires the
vertex at its first frontier hit.  The sweep it replaced gathered every
edge of every unvisited vertex and kept each vertex's first hit; it is
kept here as :func:`expand_everything_sweep`.  Both must return the same
winners (ascending), parents (first frontier neighbor in adjacency
order) and examined-edge count, element for element, under both
backends, with the sweep's one-pass shortcut as tuned and with it off
(every list then goes through the chunked passes).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.engine.backend import use_backend
from repro.engine.kernels import bottom_up_step
from repro.engine.workspace import Workspace
from repro.graphs.builder import from_edges
from repro.graphs.generators import (
    clique,
    disjoint_union_edges,
    empty_graph,
    line_graph,
    star_graph,
)
from repro.pram.cost import tracking
from repro.runtime.context import current_context

BACKENDS = ["reference", "fast"]

#: ``tuned``: the sweep's own one-pass shortcut; ``chunked``: never
#: shortcut, so small graphs exercise the chunked passes too.
PASS_MODES = ["tuned", "chunked"]

COMMON = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def expand_everything_sweep(graph, frontier_bitmap, unvisited):
    """The replaced sweep: expand every edge, keep each vertex's first hit."""
    counts, dst = graph.expand_targets(unvisited, charge_cost=False)
    hits = frontier_bitmap[dst].nonzero()[0]
    winners, first = np.unique(unvisited.repeat(counts)[hits], return_index=True)
    first_hit = hits[first]
    ends = np.cumsum(counts)[np.searchsorted(unvisited, winners)]
    examined = int(counts.sum()) - int((ends - first_hit - 1).sum())
    return winners, dst[first_hit], examined


@contextmanager
def _pass_mode(mode):
    if mode == "tuned":
        yield
        return
    with mock.patch.multiple(kernels, _FULL_PASS_EDGES=0, _FULL_PASS_PER_VERTEX=0):
        yield


def _sweep(graph, bitmap, unvisited, backend, mode):
    with use_backend(backend), _pass_mode(mode), tracking() as tracker:
        ws = current_context().backend.workspace
        out = bottom_up_step(graph, bitmap, unvisited, ws)
    return out, tracker


def _assert_matches_reference(graph, bitmap, unvisited, backend, mode):
    (winners, parents, examined), tracker = _sweep(
        graph, bitmap, unvisited, backend, mode
    )
    want_winners, want_parents, want_examined = expand_everything_sweep(
        graph, bitmap, unvisited
    )
    assert winners.tolist() == want_winners.tolist()
    assert parents.tolist() == want_parents.tolist()
    assert examined == want_examined
    # One scan of the examined edges plus a step per vertex, no atomics.
    if unvisited.size:
        scan = float(examined + unvisited.size)
        assert tracker.snapshot() == {("unphased", "scan"): (scan, 1.0)}
    else:
        assert tracker.snapshot() == {}


def _bitmap(n, vertices):
    bitmap = np.zeros(n, dtype=bool)
    bitmap[list(vertices)] = True
    return bitmap


def _hub_with_frontier_leaf(leaves, hit_leaf):
    # Hub 0's only frontier neighbor is leaf *hit_leaf*, its
    # (hit_leaf)-th edge, so the hub reads past every chunk before it.
    graph = star_graph(leaves + 1)
    return graph, _bitmap(leaves + 1, [hit_leaf]), np.array([0], dtype=np.int64)


def _named_cases():
    path = line_graph(12)
    yield "no-unvisited", clique(5), _bitmap(5, [0]), np.zeros(0, dtype=np.int64)
    yield "no-hit", path, _bitmap(12, [0]), np.arange(2, 12, dtype=np.int64)
    k = clique(40)
    yield "every-vertex-hits", k, _bitmap(40, [0]), np.arange(1, 40, dtype=np.int64)
    mixed = disjoint_union_edges([clique(6), empty_graph(5), line_graph(4)])
    yield (
        "isolated",
        mixed,
        _bitmap(mixed.num_vertices, [0]),
        np.arange(1, mixed.num_vertices, dtype=np.int64),
    )
    yield ("hub-last-edge",) + _hub_with_frontier_leaf(5000, 5000)
    yield ("hub-mid-chunk",) + _hub_with_frontier_leaf(5000, 700)
    yield ("hub-no-hit",) + (star_graph(5001), _bitmap(5001, []), np.arange(1))
    # Hub 0 hits at its 20th edge, after vertex 21 hit at its first: the
    # chunked passes find them in the opposite order to their ids.
    two = disjoint_union_edges([star_graph(21), line_graph(2)])
    yield (
        "winners-across-passes",
        two,
        _bitmap(23, [20, 22]),
        np.array([0, 21], dtype=np.int64),
    )


_CASES = list(_named_cases())


@pytest.mark.parametrize("mode", PASS_MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_named_case_matches_expand_everything(case, backend, mode):
    _name, graph, bitmap, unvisited = case
    _assert_matches_reference(graph, bitmap, unvisited, backend, mode)


@st.composite
def sweep_inputs(draw, max_vertices=40, max_edges=150):
    """A graph with an optional hub, a frontier and a disjoint unvisited set."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=max_edges,
        )
    )
    src = [a for a, _ in edges]
    dst = [b for _, b in edges]
    hub_leaves = draw(st.integers(min_value=0, max_value=400))
    if hub_leaves:
        # Vertex 0 gains leaves n .. n+hub_leaves-1, so its list outgrows
        # every chunk the sweep reads before its last pass.
        src += [0] * hub_leaves
        dst += range(n, n + hub_leaves)
        n += hub_leaves
    graph = from_edges(
        np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), num_vertices=n
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    frontier_p = draw(st.sampled_from([0.0, 0.02, 0.2, 0.6, 1.0]))
    unvisited_p = draw(st.sampled_from([0.0, 0.3, 1.0]))
    bitmap = rng.random(n) < frontier_p
    unvisited = np.flatnonzero((rng.random(n) < unvisited_p) & ~bitmap)
    return graph, bitmap, unvisited


@settings(**COMMON)
@given(inputs=sweep_inputs())
@pytest.mark.parametrize("mode", PASS_MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_random_sweep_matches_expand_everything(backend, mode, inputs):
    graph, bitmap, unvisited = inputs
    _assert_matches_reference(graph, bitmap, unvisited, backend, mode)


class _CountingWorkspace(Workspace):
    """The fast workspace, counting the edge targets gathered."""

    def __init__(self, targets):
        self.targets = targets
        self.gathered = 0

    def take(self, arr, idx):
        if arr is self.targets:
            self.gathered += idx.size
        return super().take(arr, idx)


def test_sweep_does_not_expand_every_edge():
    # Frontier vertex 0 is the first entry of every other vertex's list,
    # so each stops at its first edge; a full expansion would gather all
    # 299 * 299 edges, the chunked sweep one short chunk per vertex.
    n = 300
    graph = clique(n)
    unvisited = np.arange(1, n, dtype=np.int64)
    assert not kernels._full_pass(n * n, unvisited.size)
    ws = _CountingWorkspace(graph.targets)
    with tracking():
        winners, parents, examined = bottom_up_step(
            graph, _bitmap(n, [0]), unvisited, ws
        )
    assert winners.tolist() == unvisited.tolist()
    assert (parents == 0).all()
    assert examined == unvisited.size
    assert ws.gathered <= 4 * (examined + unvisited.size)
