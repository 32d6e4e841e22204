"""Pinned charges of the read-based sweep and its two callers' stores.

Every pull round charges the sweep (:func:`~repro.engine.kernels.bottom_up_step`)
as one ``scan`` and no atomic: each unvisited vertex is read and written
by its own processor, so nothing races.  Each caller then charges its
stores as its state's push round does, one ``scatter`` of the winners,
whether or not any vertex hit the frontier:

* ``dense_round`` (the decomposition hybrids) charges the adoption
  scatter;
* ``ComponentLabelState`` (hybrid-BFS-CC, multistep-CC) charges the
  label claim once.

Each case below drives a pull round that has unvisited vertices but no
frontier hit, where a convention that skips the empty scatter would
give a different depth.  The snapshots are exact and identical under
both backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.connectivity.hybrid_bfs_cc import bfs_from_source
from repro.decomp import decomp_arb_hybrid
from repro.engine.backend import use_backend
from repro.graphs.generators import (
    clique,
    disjoint_union_edges,
    empty_graph,
    line_graph,
    star_graph,
)
from repro.pram.cost import tracking

BACKENDS = ["reference", "fast"]


def _path_and_triangle():
    # Vertices 0-3 form a path, 4-6 a triangle the BFS from 0 never reaches.
    return disjoint_union_edges([line_graph(4), clique(3)])


@pytest.mark.parametrize("backend", BACKENDS)
def test_component_label_bfs_charges_claim_once(backend):
    # dense_threshold=0 makes every round pull; the last one exhausts
    # the path's component while the triangle stays unvisited.
    graph = _path_and_triangle()
    labels = np.full(graph.num_vertices, -1, dtype=np.int64)
    with use_backend(backend), tracking() as tracker:
        count = bfs_from_source(graph, 0, labels, 0, dense_threshold=0.0)
    assert count == 4
    assert labels.tolist() == [0, 0, 0, 0, -1, -1, -1]
    assert tracker.snapshot() == {
        ("unphased", "scan"): (109.0, 28.0),
        ("unphased", "scatter"): (3.0, 4.0),
    }
    assert tracker.sync_count == 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_dense_decomposition_round_without_hits_charges_scatter(backend):
    # A star plus four isolated vertices: round 1 runs dense over the
    # star's three claimed leaves, whose neighbors are all visited,
    # while three isolated vertices have not started yet.
    graph = disjoint_union_edges([star_graph(5), empty_graph(4)])
    with use_backend(backend), tracking() as tracker:
        dec = decomp_arb_hybrid(graph, 0.2, seed=5, dense_threshold=0.0)
    assert dec.dense_rounds == [1]
    assert dec.labels.tolist() == [0, 1, 0, 0, 0, 5, 6, 7, 8]
    assert tracker.snapshot() == {
        ("init", "scan"): (36.0, 4.0),
        ("init", "sort"): (36.0, 7.732728179727051),
        ("init", "alloc"): (9.0, 1.0),
        ("bfsPre", "gather"): (8.0, 9.0),
        ("bfsPre", "scatter"): (6.0, 3.0),
        ("bfsPre", "scan"): (0.0, 9.0),
        ("bfsSparse", "gather"): (23.0, 5.0),
        ("bfsSparse", "scan"): (6.0, 14.0),
        ("bfsSparse", "atomic"): (3.0, 1.0),
        ("bfsSparse", "scatter"): (3.0, 1.0),
        ("bfsDense", "scatter"): (3.0, 2.0),
        ("bfsDense", "scan"): (12.0, 6.0),
        ("filterEdges", "gather"): (6.0, 1.0),
        ("filterEdges", "scan"): (9.0, 5.0),
    }
    assert tracker.sync_count == 18
