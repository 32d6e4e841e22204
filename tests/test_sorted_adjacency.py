"""``CSRGraph.sorted_adjacency``: whether every adjacency list strictly ascends.

The label stream's minor-side way (``engine.kernels._minor_side_stream``)
places an edge by its two endpoints, which is exact only on strictly
ascending lists; every other graph takes the two-label compare.  So the
flag must be True exactly when every list ascends without a repeat, and
it is read once per graph.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builder import from_directed_edges, from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    clique,
    empty_graph,
    grid3d,
    line_graph,
    orkut_like,
    random_kregular,
    rmat,
    star_graph,
)

from .conftest import _ZOO


def _by_definition(graph):
    """The flag spelled out list by list."""
    return all(
        bool(np.all(np.diff(graph.neighbors(v)) > 0))
        for v in range(graph.num_vertices)
    )


def _csr(lists):
    """A CSR graph whose adjacency lists are *lists*, exactly as given."""
    counts = [len(targets) for targets in lists]
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    flat = [v for targets in lists for v in targets]
    return CSRGraph(offsets, np.asarray(flat, dtype=np.int64), symmetric=False)


@pytest.mark.parametrize("name", list(_ZOO))
def test_every_zoo_graph_is_sorted(name):
    graph = _ZOO[name]
    assert graph.sorted_adjacency
    assert _by_definition(graph)


def test_generators_beyond_the_zoo_are_sorted():
    for graph in (
        rmat(12, 15_000, seed=1),
        orkut_like(2000, 20.0, seed=3),
        line_graph(5000, seed=2),
        grid3d(6, seed=4),
        random_kregular(500, 5, seed=5),
    ):
        assert graph.sorted_adjacency


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=120),
)
def test_from_edges_builds_are_sorted(n, pairs):
    pairs = [(u % n, v % n) for u, v in pairs]
    src, dst = (np.array(side, dtype=np.int64) for side in zip(*pairs or [(0, 0)]))
    graph = from_edges(src, dst, num_vertices=n)
    assert graph.sorted_adjacency


def test_one_list_out_of_order_is_not_sorted():
    # The mirrored edges of a triangle plus a pendant vertex, with vertex
    # 1's list given as (2, 0).
    src = np.array([0, 0, 1, 1, 2, 2, 2, 3])
    dst = np.array([1, 2, 2, 0, 0, 1, 3, 2])
    graph = from_directed_edges(src, dst, 4, symmetric=True)
    assert graph.check_symmetric()
    assert graph.neighbors(1).tolist() == [2, 0]
    assert not graph.sorted_adjacency
    assert not _by_definition(graph)


def test_a_repeated_edge_is_not_sorted():
    src = np.array([0, 0, 1, 1])
    dst = np.array([1, 1, 0, 0])
    graph = from_directed_edges(src, dst, 2, symmetric=True)
    assert graph.neighbors(0).tolist() == [1, 1]
    assert not graph.sorted_adjacency


@pytest.mark.parametrize(
    "lists, want",
    [
        ([], True),  # n = 0
        ([[]], True),
        ([[1], [0]], True),  # a single edge
        ([[1], []], True),  # a single directed edge
        # Zero-degree vertices between lists, first and last: each next
        # list may start below the previous list's last target.
        ([[], [3, 4], [], [], [0, 1], [1], []], True),
        ([[], [3, 4], [], [], [1, 0], [1], []], False),
        ([[], [3, 3], [], [], [0, 1], [1], []], False),
        ([[2, 3], [], [0], []], True),
        ([[2, 3], [], [0, 0], []], False),
        # The last step of the last list counts.
        ([[0], [1, 2, 2], []], False),
        ([[1, 0], []], False),
    ],
)
def test_boundaries(lists, want):
    graph = _csr(lists)
    assert graph.sorted_adjacency is want
    assert _by_definition(graph) is want


@settings(max_examples=100, deadline=None)
@given(
    lists=st.lists(st.lists(st.integers(0, 7), max_size=6), min_size=8, max_size=8)
)
def test_matches_the_definition(lists):
    graph = _csr(lists)
    assert graph.sorted_adjacency is _by_definition(graph)


def test_computed_once_and_cached():
    graph = star_graph(6)
    assert "_sorted_adjacency" not in vars(graph)
    assert graph.sorted_adjacency is True
    assert vars(graph)["_sorted_adjacency"] is True
    # A later read does not look at the targets again.
    object.__setattr__(graph, "targets", graph.targets[::-1].copy())
    assert graph.sorted_adjacency is True


def test_trusted_graphs_compute_it_too():
    graph = clique(5)
    trusted = CSRGraph.trusted(graph.offsets, graph.targets)
    assert trusted.sorted_adjacency
    unsorted = CSRGraph.trusted(graph.offsets, graph.targets[::-1].copy())
    assert not unsorted.sorted_adjacency
    assert empty_graph(0).sorted_adjacency
