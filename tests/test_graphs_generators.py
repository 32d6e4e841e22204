"""Unit tests for the graph generators (the paper's inputs + the zoo)."""

import numpy as np
import pytest

from repro.analysis.verify import ground_truth_labels
from repro.errors import ParameterError
from repro.graphs.generators import (
    binary_tree,
    clique,
    cycle_graph,
    disjoint_union_edges,
    empty_graph,
    grid3d,
    line_graph,
    orkut_like,
    random_gnm,
    random_kregular,
    rmat,
    rmat2_paper,
    rmat_paper,
    star_graph,
)

from .bfs_reference import bfs_distances


class TestRandomKRegular:
    def test_sizes(self):
        g = random_kregular(1000, 5, seed=1)
        assert g.num_vertices == 1000
        # symmetrized and deduplicated: at most 5000 undirected edges
        assert 4000 < g.num_edges <= 5000

    def test_symmetric(self):
        assert random_kregular(200, 4, seed=2).check_symmetric()

    def test_one_giant_component_whp(self):
        g = random_kregular(2000, 5, seed=3)
        labels = ground_truth_labels(g)
        counts = np.bincount(labels)
        assert counts.max() > 0.99 * 2000

    def test_deterministic_per_seed(self):
        a = random_kregular(100, 3, seed=9)
        b = random_kregular(100, 3, seed=9)
        assert np.array_equal(a.targets, b.targets)

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            random_kregular(0, 5)
        with pytest.raises(ParameterError):
            random_kregular(10, 0)


class TestRMat:
    def test_sizes(self):
        g = rmat(10, 3000, seed=1)
        assert g.num_vertices == 1024
        assert 0 < g.num_edges <= 3000

    def test_power_law_skew(self):
        # with (a,b,c) = (0.5, 0.1, 0.1) the degree distribution must be
        # clearly skewed: max degree several times the non-zero mean
        # (the skew strengthens with scale; 5x is ample at scale 12)
        g = rmat(12, 20_000, seed=2)
        deg = g.degrees
        assert deg.max() > 5 * deg[deg > 0].mean()

    def test_sparse_rmat_has_isolated_vertices(self):
        # the paper's rMat regime: edge factor ~3.7 leaves isolated
        # vertices (a growing fraction as the scale increases)
        g = rmat_paper(scale=12, seed=1)
        assert np.count_nonzero(g.degrees == 0) > 0.01 * g.num_vertices

    def test_sparse_rmat_many_components(self):
        g = rmat_paper(scale=11, seed=1)
        labels = ground_truth_labels(g)
        assert np.unique(labels).size > 30

    def test_rmat2_is_dense_low_diameter(self):
        g = rmat2_paper(scale=8, seed=1)
        assert g.num_edges > 10 * g.num_vertices
        # giant component reachable in few hops from a hub
        hub = int(np.argmax(g.degrees))
        assert bfs_distances(g, hub).max() <= 7

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ParameterError):
            rmat(4, 10, a=0.8, b=0.2, c=0.2)

    def test_rejects_bad_scale(self):
        with pytest.raises(ParameterError):
            rmat(-1, 10)
        with pytest.raises(ParameterError):
            rmat(32, 10)

    def test_rejects_negative_edge_count(self):
        with pytest.raises(ParameterError):
            rmat(4, -1)

    def test_rejects_nan_probability(self):
        with pytest.raises(ParameterError):
            rmat(3, 10, a=float("nan"))


class TestGrid3D:
    def test_sizes(self):
        g = grid3d(4)
        assert g.num_vertices == 64
        assert g.num_edges == 3 * 16 * 3  # 3 axes * side^2 * (side-1)

    def test_degrees_bounded_by_six(self):
        g = grid3d(5)
        assert g.degrees.max() == 6
        assert g.degrees.min() == 3  # corners

    def test_single_component(self):
        labels = ground_truth_labels(grid3d(4))
        assert np.unique(labels).size == 1

    def test_permuted_labels_same_structure(self):
        a, b = grid3d(4), grid3d(4, seed=7)
        assert a.num_edges == b.num_edges
        assert not np.array_equal(a.targets, b.targets)

    def test_side_one(self):
        g = grid3d(1)
        assert g.num_vertices == 1 and g.num_edges == 0

    def test_rejects_bad_side(self):
        with pytest.raises(ParameterError):
            grid3d(0)


class TestLineAndCycle:
    def test_line_sizes(self):
        g = line_graph(100)
        assert g.num_vertices == 100 and g.num_edges == 99

    def test_line_diameter_is_n_minus_1(self):
        assert bfs_distances(line_graph(50), 0).max() == 49

    def test_line_endpoint_degrees(self):
        g = line_graph(10)
        assert sorted(g.degrees.tolist()) == [1, 1] + [2] * 8

    def test_line_single_vertex(self):
        g = line_graph(1)
        assert g.num_vertices == 1 and g.num_edges == 0

    def test_line_permuted_is_still_a_path(self):
        g = line_graph(30, seed=5)
        assert sorted(g.degrees.tolist()) == [1, 1] + [2] * 28

    def test_cycle(self):
        g = cycle_graph(10)
        assert g.num_edges == 10
        assert (g.degrees == 2).all()

    def test_cycle_rejects_small(self):
        with pytest.raises(ParameterError):
            cycle_graph(2)


class TestOrkutLike:
    def test_single_component(self):
        g = orkut_like(500, 10.0, seed=1)
        labels = ground_truth_labels(g)
        assert np.unique(labels).size == 1

    def test_dense_and_skewed(self):
        g = orkut_like(2000, 20.0, seed=2)
        deg = g.degrees
        assert deg.mean() > 10
        assert deg.max() > 4 * deg.mean()

    def test_size(self):
        g = orkut_like(777, 8.0, seed=3)
        assert g.num_vertices == 777

    def test_rejects_tiny(self):
        with pytest.raises(ParameterError):
            orkut_like(2)

    def test_rejects_negative_degree(self):
        with pytest.raises(ParameterError):
            orkut_like(100, -5.0)

    def test_rejects_nan_degree(self):
        with pytest.raises(ParameterError):
            orkut_like(100, float("nan"))


class TestZooGenerators:
    def test_star(self):
        g = star_graph(10)
        assert g.degrees[0] == 9
        assert (g.degrees[1:] == 1).all()

    def test_star_of_one(self):
        assert star_graph(1).num_edges == 0

    def test_clique(self):
        g = clique(6)
        assert g.num_edges == 15
        assert (g.degrees == 5).all()

    def test_binary_tree(self):
        g = binary_tree(3)
        assert g.num_vertices == 15
        assert g.num_edges == 14
        assert g.degrees[0] == 2  # root

    def test_binary_tree_depth_zero(self):
        assert binary_tree(0).num_vertices == 1

    def test_random_gnm(self):
        g = random_gnm(100, 50, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges <= 50

    def test_disjoint_union_counts(self):
        g = disjoint_union_edges([clique(4), line_graph(3), empty_graph(2)])
        assert g.num_vertices == 9
        assert g.num_edges == 6 + 2
        labels = ground_truth_labels(g)
        assert np.unique(labels).size == 4  # clique, path, 2 singletons

    def test_disjoint_union_empty_list(self):
        assert disjoint_union_edges([]).num_vertices == 0

    def test_empty_graph(self):
        g = empty_graph(7)
        assert g.num_vertices == 7 and g.num_directed == 0
        with pytest.raises(ParameterError):
            empty_graph(-1)
