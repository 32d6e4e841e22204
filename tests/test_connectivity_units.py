"""Per-algorithm unit tests: metadata, edge cases, internal invariants."""

import numpy as np
import pytest

from repro.connectivity import (
    DEFAULT_BETA,
    UnionFind,
    canonicalize_labels,
    compress_all,
    decomp_cc,
    find_roots,
    hybrid_bfs_cc,
    label_prop_cc,
    multistep_cc,
    num_components,
    parallel_sf_pbbs_cc,
    parallel_sf_prm_cc,
    serial_sf_cc,
    serial_spanning_forest,
    shiloach_vishkin_cc,
)
from repro.errors import ParameterError
from repro.graphs.generators import (
    clique,
    disjoint_union_edges,
    empty_graph,
    line_graph,
    random_kregular,
    star_graph,
)
from repro.graphs.ops import edges_as_undirected_pairs
from repro.pram.cost import CostTracker, tracking
from repro.runtime.context import current_context

from tests.conftest import zoo_params


class TestCanonicalizeLabels:
    def test_first_occurrence_ordering(self):
        assert canonicalize_labels(np.array([9, 9, 4, 9, 4])).tolist() == [
            0, 0, 1, 0, 1,
        ]

    def test_already_canonical(self):
        a = np.array([0, 1, 1, 2])
        assert canonicalize_labels(a).tolist() == a.tolist()

    def test_empty(self):
        assert canonicalize_labels(np.array([], dtype=np.int64)).size == 0

    def test_equivalent_relabelings_collapse(self):
        a = np.array([5, 5, 7])
        b = np.array([1, 1, 0])
        assert np.array_equal(canonicalize_labels(a), canonicalize_labels(b))

    def test_num_components(self):
        assert num_components(np.array([3, 3, 8])) == 2
        assert num_components(np.array([], dtype=np.int64)) == 0


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert uf.find(0) != uf.find(1)

    def test_union_merges(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.find(0) == uf.find(1)

    def test_union_idempotent(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert not uf.union(1, 0)

    def test_transitive(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)

    def test_components_labels(self):
        uf = UnionFind(4)
        uf.union(0, 2)
        labels = uf.components()
        assert labels[0] == labels[2]
        assert len(set(labels.tolist())) == 3

    def test_flush_costs_charges_seq(self):
        from repro.pram.cost import tracking

        with tracking() as t:
            uf = UnionFind(10)
            for i in range(9):
                uf.union(i, i + 1)
            uf.flush_costs()
        assert t.work_by_kind().get("seq", 0.0) > 0.0
        # seq work must carry no depth (machine model counts it once)
        assert t.depth_by_phase().get("unphased", 0.0) <= 1.0


class TestPointerJumping:
    def test_find_roots_resolves_chain(self):
        parent = np.array([0, 0, 1, 2])  # chain 3->2->1->0
        roots = find_roots(parent, np.array([3, 2, 0]))
        assert roots.tolist() == [0, 0, 0]

    def test_find_roots_does_not_mutate(self):
        parent = np.array([0, 0, 1])
        before = parent.copy()
        find_roots(parent, np.array([2]))
        assert np.array_equal(parent, before)

    def test_compress_all_flattens(self):
        parent = np.array([0, 0, 1, 2, 3])
        rounds = compress_all(parent)
        assert parent.tolist() == [0, 0, 0, 0, 0]
        assert rounds <= 4  # pointer doubling: log2(chain length) + 1

    def test_compress_all_noop_when_flat(self):
        parent = np.array([0, 0, 2])
        assert compress_all(parent) == 1


def _profile(tracker) -> dict:
    return {key: (b.work, b.depth) for key, b in tracker.buckets.items()}


def _per_edge_serial_sf(graph):
    """serial-SF as one ``union`` call per edge and one ``find`` per vertex."""
    with tracking(CostTracker()) as sub:
        src, dst = edges_as_undirected_pairs(graph)
        uf = UnionFind(graph.num_vertices)
    current_context().tracker.add("seq", work=sub.total_work(), depth=0.0)
    forest = [(u, v) for u, v in zip(src.tolist(), dst.tolist()) if uf.union(u, v)]
    uf.flush_costs()
    labels = [uf.find(v) for v in range(graph.num_vertices)]
    uf.flush_costs()
    return forest, labels


class TestSerialSF:
    def test_forest_size(self):
        g = random_kregular(300, 4, seed=1)
        uf, forest = serial_spanning_forest(g)
        labels = uf.components()
        n_components = len(set(labels.tolist()))
        assert len(forest) == 300 - n_components  # forest edges = n - c

    @pytest.mark.parametrize("graph", zoo_params())
    def test_matches_per_edge_reference(self, graph):
        # The fused union loop against the per-edge sweep it replaced:
        # same forest, labels and (phase, kind) -> (work, depth) profile.
        with tracking() as ref_tracker:
            ref_forest, ref_labels = _per_edge_serial_sf(graph)
        with tracking() as tracker:
            labels = serial_sf_cc(graph).labels
        with tracking():
            _, forest = serial_spanning_forest(graph)
        assert forest == ref_forest
        assert labels.tolist() == ref_labels
        assert _profile(tracker) == _profile(ref_tracker)

    def test_result_metadata(self):
        res = serial_sf_cc(clique(5))
        assert res.algorithm == "serial-SF"
        assert res.stats["forest_edges"] == 4
        assert res.num_components == 1


class TestParallelSF:
    def test_pbbs_forest_edge_count(self):
        g = disjoint_union_edges([clique(5), line_graph(4)])
        res = parallel_sf_pbbs_cc(g)
        assert res.stats["forest_edges"] == 9 - 2  # n - components

    def test_prm_forest_edge_count(self):
        g = disjoint_union_edges([clique(5), line_graph(4)])
        res = parallel_sf_prm_cc(g)
        assert res.stats["forest_edges"] == 7

    def test_pbbs_rounds_logarithmic(self):
        g = line_graph(1024)
        res = parallel_sf_pbbs_cc(g)
        assert res.iterations < 60

    def test_prm_fewer_rounds_than_pbbs(self):
        g = star_graph(500)
        pbbs = parallel_sf_pbbs_cc(g)
        prm = parallel_sf_prm_cc(g)
        assert prm.iterations <= pbbs.iterations

    def test_empty_graph(self):
        for fn in (parallel_sf_pbbs_cc, parallel_sf_prm_cc):
            res = fn(empty_graph(4))
            assert res.num_components == 4


class TestBFSBasedCC:
    def test_hybrid_bfs_component_count_matches_iterations(self):
        g = disjoint_union_edges([clique(4), clique(4), empty_graph(2)])
        res = hybrid_bfs_cc(g)
        assert res.iterations == res.num_components == 4

    def test_hybrid_bfs_sizes_recorded(self):
        g = disjoint_union_edges([clique(3), line_graph(5)])
        res = hybrid_bfs_cc(g)
        assert sorted(res.stats["component_sizes_found"]) == [3, 5]

    def test_multistep_giant_component_found(self):
        g = disjoint_union_edges([clique(30), line_graph(5)])
        res = multistep_cc(g)
        assert res.stats["giant_component_size"] == 30

    def test_multistep_empty(self):
        res = multistep_cc(empty_graph(0))
        assert res.num_components == 0

    def test_multistep_singletons_only(self):
        res = multistep_cc(empty_graph(5))
        assert res.num_components == 5


class TestLabelPropAndSV:
    def test_label_prop_sweeps_track_diameter(self):
        res = label_prop_cc(line_graph(64))
        assert res.iterations >= 32  # label 0 must travel the path

    def test_label_prop_one_sweep_on_star(self):
        res = label_prop_cc(star_graph(10))
        assert res.iterations <= 3

    def test_sv_rounds_logarithmic(self):
        res = shiloach_vishkin_cc(line_graph(1000))
        assert res.iterations < 30

    def test_sv_labels_are_minima(self):
        g = clique(6)
        res = shiloach_vishkin_cc(g)
        assert (res.labels == 0).all()


class TestDecompCC:
    def test_metadata(self):
        g = random_kregular(500, 4, seed=2)
        res = decomp_cc(g, 0.2, variant="arb", seed=1)
        assert res.algorithm == "decomp-arb-CC"
        assert res.edges_per_iteration[0] == g.num_edges
        assert res.iterations == len(res.edges_per_iteration)
        assert res.stats["beta"] == 0.2
        assert len(res.stats["rounds_per_iteration"]) == res.iterations

    def test_edges_decrease_monotonically(self):
        g = random_kregular(2000, 5, seed=3)
        res = decomp_cc(g, 0.3, variant="arb", seed=1)
        e = res.edges_per_iteration
        assert all(a > b for a, b in zip(e, e[1:]))

    def test_labels_in_vertex_range(self):
        g = disjoint_union_edges([clique(4), empty_graph(3), line_graph(6)])
        res = decomp_cc(g, 0.2, seed=2)
        assert res.labels.min() >= 0

    def test_unknown_variant(self):
        with pytest.raises(ParameterError, match="unknown variant"):
            decomp_cc(clique(3), 0.2, variant="quantum")

    def test_default_beta_exported(self):
        assert 0.0 < DEFAULT_BETA < 0.5

    def test_single_vertex(self):
        res = decomp_cc(empty_graph(1), 0.2)
        assert res.num_components == 1

    def test_empty(self):
        res = decomp_cc(empty_graph(0), 0.2)
        assert res.labels.size == 0
