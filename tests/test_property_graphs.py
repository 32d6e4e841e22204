"""Property-based tests for graph construction and relabeling."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.builder import from_edges
from repro.graphs.ops import edges_as_undirected_pairs, relabel_graph
from repro.primitives.rand import random_permutation

from .bfs_reference import bfs_distances

COMMON = dict(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


@st.composite
def edge_lists(draw, max_vertices=30, max_edges=80):
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
    return n, edges


@settings(**COMMON)
@given(data=edge_lists())
def test_from_edges_is_symmetric_simple(data):
    n, edges = data
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    g = from_edges(src, dst, num_vertices=n)
    assert g.check_symmetric()
    # no self loops, no duplicate directed edges
    s, d = g.edge_array()
    assert np.all(s != d)
    keys = set(zip(s.tolist(), d.tolist()))
    assert len(keys) == g.num_directed


@settings(**COMMON)
@given(data=edge_lists())
def test_builder_roundtrip_through_pairs(data):
    n, edges = data
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    g = from_edges(src, dst, num_vertices=n)
    s, d = edges_as_undirected_pairs(g)
    h = from_edges(s, d, num_vertices=n)
    assert np.array_equal(g.offsets, h.offsets)
    assert np.array_equal(g.targets, h.targets)


@settings(**COMMON)
@given(data=edge_lists(), seed=st.integers(min_value=0, max_value=100))
def test_relabeling_preserves_bfs_distances_multiset(data, seed):
    n, edges = data
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    g = from_edges(src, dst, num_vertices=n)
    perm = random_permutation(n, seed)
    h = relabel_graph(g, perm)
    d_g = bfs_distances(g, 0)
    d_h = bfs_distances(h, int(perm[0]))
    # distances from the (relabeled) same source: same multiset, and
    # pointwise equal after permuting
    assert np.array_equal(d_h[perm], d_g)
