"""Unit tests for verification and statistics."""

import numpy as np
import pytest

from repro.analysis.stats import (
    component_histogram,
    decomposition_stats,
    edge_decay_ratios,
    partition_radii,
)
from repro.analysis.verify import (
    ground_truth_labels,
    labelings_equivalent,
    verify_decomposition,
    verify_labeling,
)
from repro.connectivity import decomp_cc
from repro.connectivity.base import ConnectivityResult
from repro.decomp import decomp_arb
from repro.errors import VerificationError
from repro.graphs.generators import (
    clique,
    disjoint_union_edges,
    empty_graph,
    grid3d,
    line_graph,
    random_kregular,
    star_graph,
)


class TestGroundTruth:
    def test_single_component(self):
        labels = ground_truth_labels(clique(5))
        assert np.unique(labels).size == 1

    def test_multi_component(self):
        g = disjoint_union_edges([clique(3), line_graph(4), empty_graph(2)])
        labels = ground_truth_labels(g)
        assert np.unique(labels).size == 4

    def test_empty(self):
        assert ground_truth_labels(empty_graph(0)).size == 0

    def test_matches_networkx(self):
        import networkx as nx

        g = random_kregular(300, 3, seed=9)
        G = nx.Graph()
        G.add_nodes_from(range(g.num_vertices))
        s, d = g.edge_array()
        G.add_edges_from(zip(s.tolist(), d.tolist()))
        num_cc = nx.number_connected_components(G)
        assert np.unique(ground_truth_labels(g)).size == num_cc


class TestLabelingsEquivalent:
    def test_renaming_invariant(self):
        assert labelings_equivalent(np.array([1, 1, 2]), np.array([7, 7, 0]))

    def test_different_partitions(self):
        assert not labelings_equivalent(np.array([0, 0, 1]), np.array([0, 1, 1]))

    def test_shape_mismatch(self):
        assert not labelings_equivalent(np.array([0]), np.array([0, 1]))


class TestVerifyLabeling:
    def test_accepts_correct(self):
        g = line_graph(10)
        verify_labeling(g, ground_truth_labels(g))

    def test_rejects_wrong_shape(self):
        with pytest.raises(VerificationError, match="shape"):
            verify_labeling(clique(3), np.array([0, 0]))

    def test_rejects_split_component(self):
        g = line_graph(4)
        with pytest.raises(VerificationError, match="crosses labels"):
            verify_labeling(g, np.array([0, 0, 1, 1]))

    def test_rejects_merged_components(self):
        g = disjoint_union_edges([clique(3), clique(3)])
        with pytest.raises(VerificationError, match="components"):
            verify_labeling(g, np.zeros(6, dtype=np.int64))

    def test_reference_can_be_supplied(self):
        g = star_graph(5)
        truth = ground_truth_labels(g)
        verify_labeling(g, truth, reference=truth)


class TestVerifyDecomposition:
    def test_accepts_real_decomposition(self):
        g = grid3d(5)
        dec = decomp_arb(g, beta=0.3, seed=1)
        inter = verify_decomposition(g, dec.labels)
        assert inter == dec.num_inter_directed

    def test_rejects_center_outside_partition(self):
        g = line_graph(4)
        # labels claim center 3 owns vertex 0, but 3's own label is 0
        bad = np.array([3, 3, 0, 0])
        with pytest.raises(VerificationError):
            verify_decomposition(g, bad)

    def test_rejects_disconnected_partition(self):
        g = line_graph(5)
        # partition {0, 4} is not connected inside itself
        bad = np.array([0, 1, 1, 1, 0])
        with pytest.raises(VerificationError, match="cannot reach"):
            verify_decomposition(g, bad)

    def test_rejects_out_of_range(self):
        with pytest.raises(VerificationError):
            verify_decomposition(clique(3), np.array([0, 5, 0]))

    def test_empty(self):
        assert verify_decomposition(empty_graph(0), np.zeros(0, dtype=np.int64)) == 0


class TestPartitionRadii:
    def test_single_partition_radius_is_eccentricity(self):
        g = line_graph(7)
        labels = np.zeros(7, dtype=np.int64)  # center 0 owns everything
        radii = partition_radii(g, labels)
        assert radii.max() == 6
        assert radii[0] == 0

    def test_all_singletons(self):
        g = line_graph(5)
        radii = partition_radii(g, np.arange(5))
        assert (radii == 0).all()

    def test_radii_defined_for_all(self):
        g = grid3d(4)
        dec = decomp_arb(g, beta=0.2, seed=2)
        radii = partition_radii(g, dec.labels)
        assert (radii >= 0).all()


class TestDecompositionStats:
    def test_fields(self):
        g = random_kregular(500, 4, seed=3)
        dec = decomp_arb(g, beta=0.2, seed=1)
        s = decomposition_stats(g, dec, beta=0.2, variant="arb")
        assert s.num_partitions == dec.num_components
        assert 0.0 <= s.inter_edge_fraction <= 1.0
        assert s.theoretical_fraction_bound == pytest.approx(0.4)
        assert s.max_radius >= 0

    def test_min_variant_bound(self):
        g = clique(6)
        dec = decomp_arb(g, beta=0.3, seed=1)
        s = decomposition_stats(g, dec, beta=0.3, variant="min")
        assert s.theoretical_fraction_bound == pytest.approx(0.3)


class TestEdgeDecayAndHistogram:
    def test_edge_decay_ratios(self):
        res = ConnectivityResult(
            labels=np.zeros(1, dtype=np.int64),
            algorithm="x",
            edges_per_iteration=[100, 10, 1],
        )
        assert edge_decay_ratios(res) == [0.1, 0.1]

    def test_edge_decay_handles_zero(self):
        res = ConnectivityResult(
            labels=np.zeros(1, dtype=np.int64),
            algorithm="x",
            edges_per_iteration=[0, 0],
        )
        assert edge_decay_ratios(res) == [0.0]

    def test_component_histogram(self):
        h = component_histogram(np.array([0, 0, 0, 5, 5, 9]))
        assert h["num_components"] == 3
        assert h["largest"] == 3
        assert h["mean_size"] == 2.0

    def test_component_histogram_empty(self):
        h = component_histogram(np.array([], dtype=np.int64))
        assert h["num_components"] == 0

    def test_real_decay_below_bound_due_to_duplicates(self):
        # the paper's Figure 4 observation on a dense graph: every
        # iteration's decay ratio beats the 2*beta bound (a one-
        # iteration run is the extreme case — everything merged at once)
        g = random_kregular(3000, 8, seed=4)
        res = decomp_cc(g, 0.8, variant="arb-hybrid", seed=2)
        for ratio in edge_decay_ratios(res):
            assert ratio < 2 * 0.8

