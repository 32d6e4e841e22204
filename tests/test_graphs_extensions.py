"""Tests for the extension generators and PBBS AdjacencyGraph I/O."""

import numpy as np
import pytest

from repro.analysis.verify import ground_truth_labels, verify_labeling
from repro.connectivity import decomp_cc
from repro.errors import GraphFormatError, ParameterError
from repro.graphs import (
    preferential_attachment,
    random_kregular,
    read_adjacency_graph,
    small_world,
    write_adjacency_graph,
)

from .bfs_reference import bfs_distances


class TestPreferentialAttachment:
    def test_connected(self):
        g = preferential_attachment(500, k=3, seed=1)
        assert np.unique(ground_truth_labels(g)).size == 1

    def test_power_law_hubs(self):
        g = preferential_attachment(2000, k=3, seed=2)
        deg = g.degrees
        assert deg.max() > 8 * deg.mean()

    def test_sizes(self):
        g = preferential_attachment(300, k=2, seed=3)
        assert g.num_vertices == 300
        # each new vertex adds <= k edges
        assert g.num_edges <= 1 + 2 * 298

    def test_min_degree_positive(self):
        g = preferential_attachment(200, k=2, seed=4)
        assert g.degrees.min() >= 1

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            preferential_attachment(1, k=2)
        with pytest.raises(ParameterError):
            preferential_attachment(10, k=0)

    def test_decomp_cc_solves_it(self):
        g = preferential_attachment(800, k=3, seed=5)
        verify_labeling(g, decomp_cc(g, 0.2, seed=1).labels)


class TestSmallWorld:
    def test_sizes_and_regular_base(self):
        g = small_world(100, k=4, p=0.0, seed=1)
        assert g.num_vertices == 100
        assert (g.degrees == 4).all()  # pure ring lattice
        assert np.unique(ground_truth_labels(g)).size == 1

    def test_rewiring_changes_structure(self):
        lattice = small_world(200, k=4, p=0.0, seed=2)
        rewired = small_world(200, k=4, p=0.5, seed=2)
        assert not np.array_equal(lattice.targets, rewired.targets)

    def test_shortcuts_shrink_diameter(self):
        lattice = small_world(400, k=4, p=0.0, seed=3)
        rewired = small_world(400, k=4, p=0.3, seed=3)
        d0 = bfs_distances(lattice, 0).max()
        d1 = bfs_distances(rewired, 0).max()
        assert d1 < d0

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            small_world(3, k=2)
        with pytest.raises(ParameterError):
            small_world(10, k=3)  # odd k
        with pytest.raises(ParameterError):
            small_world(10, k=4, p=1.5)

    def test_decomp_cc_solves_it(self):
        g = small_world(600, k=6, p=0.1, seed=4)
        verify_labeling(g, decomp_cc(g, 0.2, variant="arb-hybrid", seed=1).labels)


class TestAdjacencyGraphIO:
    def test_roundtrip(self, tmp_path):
        g = random_kregular(120, 4, seed=7)
        path = tmp_path / "g.adj"
        write_adjacency_graph(g, path)
        h = read_adjacency_graph(path)
        assert np.array_equal(g.offsets, h.offsets)
        assert np.array_equal(g.targets, h.targets)

    def test_header_line(self, tmp_path):
        g = random_kregular(10, 2, seed=1)
        path = tmp_path / "g.adj"
        write_adjacency_graph(g, path)
        assert path.read_text().splitlines()[0] == "AdjacencyGraph"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.adj"
        path.write_text("EdgeList\n1\n0\n0\n")
        with pytest.raises(GraphFormatError, match="header"):
            read_adjacency_graph(path)

    def test_rejects_wrong_counts(self, tmp_path):
        path = tmp_path / "bad.adj"
        path.write_text("AdjacencyGraph\n2\n3\n0\n1\n")  # too few values
        with pytest.raises(GraphFormatError, match="expected"):
            read_adjacency_graph(path)

    def test_rejects_garbage_tokens(self, tmp_path):
        path = tmp_path / "bad.adj"
        path.write_text("AdjacencyGraph\n1\n1\n0\nxyz\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_adjacency_graph(path)

    def test_handcrafted_file(self, tmp_path):
        # 3 vertices: 0 -> {1, 2}, 1 -> {0}, 2 -> {0}
        path = tmp_path / "tri.adj"
        path.write_text("AdjacencyGraph\n3\n4\n0\n2\n3\n1\n2\n0\n0\n")
        g = read_adjacency_graph(path)
        assert g.num_vertices == 3
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert g.check_symmetric()
