"""Tests for the decomposition-based spanning forest extraction."""

import numpy as np
import pytest

from repro.connectivity import (
    decomp_spanning_forest,
    partition_parents,
    serial_spanning_forest,
    verify_spanning_forest,
)
from repro.connectivity.decomp_cc import (
    LEVEL_SEED_STRIDE,
    contraction_levels,
    decomp_cc,
)
from repro.decomp import DECOMP_VARIANTS, decomp_arb
from repro.errors import ParameterError, VerificationError
from repro.graphs.generators import (
    clique,
    disjoint_union_edges,
    empty_graph,
    grid3d,
    line_graph,
    random_kregular,
    rmat,
    star_graph,
)
from repro.pram.cost import tracking

from tests.conftest import zoo_params

VARIANTS = ["min", "arb", "arb-hybrid", "min-hybrid"]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("graph", zoo_params())
def test_forest_valid_on_zoo(variant, graph):
    src, dst = decomp_spanning_forest(graph, beta=0.3, variant=variant, seed=3)
    verify_spanning_forest(graph, src, dst)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_forest_seed_robust(seed, medium_random):
    src, dst = decomp_spanning_forest(medium_random, beta=0.2, seed=seed)
    verify_spanning_forest(medium_random, src, dst)


@pytest.mark.parametrize("beta", [0.05, 0.3, 0.7])
def test_forest_beta_robust(beta):
    g = grid3d(7, seed=2)
    src, dst = decomp_spanning_forest(g, beta=beta, seed=1)
    verify_spanning_forest(g, src, dst)


def test_forest_size_matches_serial(medium_random):
    src, _ = decomp_spanning_forest(medium_random, beta=0.2, seed=1)
    _, serial_forest = serial_spanning_forest(medium_random)
    assert src.size == len(serial_forest)


def test_forest_empty_graph():
    src, dst = decomp_spanning_forest(empty_graph(5), beta=0.2)
    assert src.size == 0 and dst.size == 0


def test_forest_unknown_variant():
    with pytest.raises(ParameterError):
        decomp_spanning_forest(clique(3), variant="bogus")


@pytest.mark.parametrize("variant", VARIANTS)
def test_levels_are_decomp_cc_recursion(variant):
    # The forest and decomp-CC walk one recursion: level l decomposes
    # the level graph with seed + LEVEL_SEED_STRIDE * l.
    g = disjoint_union_edges([grid3d(4), line_graph(30), star_graph(9)])
    with tracking():
        levels = list(contraction_levels(g, 0.2, variant, seed=4))
        result = decomp_cc(g, 0.2, variant=variant, seed=4)
    assert len(levels) == result.iterations
    assert levels[-1][2].is_base_case
    rounds = [dec.num_rounds for _, dec, _ in levels]
    assert rounds == result.stats["rounds_per_iteration"]
    for level, (level_graph, dec, _) in enumerate(levels):
        with tracking():
            again = DECOMP_VARIANTS[variant](
                level_graph, 0.2, seed=4 + LEVEL_SEED_STRIDE * level
            )
        assert np.array_equal(dec.labels, again.labels)


class TestPartitionParents:
    def test_single_partition_is_bfs_tree(self):
        g = grid3d(4)
        labels = np.zeros(g.num_vertices, dtype=np.int64)
        parents = partition_parents(g, labels)
        assert parents[0] == -1
        assert (parents[1:] >= 0).all()
        # parents must be real neighbors
        for v in range(1, g.num_vertices):
            assert parents[v] in g.neighbors(v)

    def test_all_singletons_no_parents(self):
        g = line_graph(6)
        parents = partition_parents(g, np.arange(6))
        assert (parents == -1).all()

    def test_respects_partition_boundaries(self):
        g = line_graph(10)
        labels = np.array([0] * 5 + [5] * 5)
        labels[5] = 5
        parents = partition_parents(g, labels)
        for v in range(10):
            if parents[v] >= 0:
                assert labels[parents[v]] == labels[v]

    @pytest.mark.parametrize(
        "labels",
        [
            np.zeros(3),
            np.zeros(7),
            np.array([0, 1, 5, 2, 3]),
            np.array([0, -1, 2, 3, 4]),
        ],
        ids=["short", "long", "too-large", "negative"],
    )
    def test_rejects_malformed_labels(self, labels):
        g = line_graph(5)
        with tracking() as tracker:
            with pytest.raises(ParameterError, match="labels"):
                partition_parents(g, labels.astype(np.int64))
        assert tracker.snapshot() == {}

    def test_after_real_decomposition(self):
        g = random_kregular(400, 4, seed=2)
        dec = decomp_arb(g, beta=0.3, seed=1)
        parents = partition_parents(g, dec.labels)
        centers = np.unique(dec.labels)
        assert (parents[centers] == -1).all()
        non_centers = np.setdiff1d(np.arange(g.num_vertices), centers)
        assert (parents[non_centers] >= 0).all()


class TestVerifySpanningForest:
    def test_rejects_fake_edge(self):
        g = line_graph(4)
        with pytest.raises(VerificationError, match="not a graph edge"):
            verify_spanning_forest(g, np.array([0]), np.array([3]))

    def test_out_of_range_endpoint_is_not_a_graph_edge(self):
        # Packed as u * n + v, (0, 4) would read as the real edge (1, 0).
        g = line_graph(4)
        with pytest.raises(
            VerificationError, match=r"forest edge \(0, 4\) is not a graph edge"
        ):
            verify_spanning_forest(g, np.array([0, 1, 0]), np.array([1, 2, 4]))

    def test_rejects_cycle_naming_the_closing_edge(self):
        # Right size (n - c = 3), real edges, but the third closes 0-1-2.
        g = clique(4)
        with pytest.raises(
            VerificationError, match=r"forest edge \(2, 0\) closes a cycle"
        ):
            verify_spanning_forest(g, np.array([0, 1, 2]), np.array([1, 2, 0]))

    def test_rejects_wrong_size(self):
        g = line_graph(4)
        with pytest.raises(VerificationError, match="expected n - c"):
            verify_spanning_forest(g, np.array([0]), np.array([1]))

    def test_rejects_cycle(self):
        g = clique(3)
        # 3 edges on 3 vertices with 1 component: wrong count triggers
        # first; craft a 4-clique with a cycle of 3 and a repeat
        g = clique(4)
        with pytest.raises(VerificationError):
            verify_spanning_forest(
                g, np.array([0, 1, 2]), np.array([1, 2, 0])
            )

    @pytest.mark.parametrize(
        "src, dst, message",
        [
            ([0, 1, 3], [1, 3, 4], "forest edge (1, 3) is not a graph edge"),
            ([0, 1, 3], [1, 2, 5], "forest edge (3, 5) is not a graph edge"),
            ([0, 1, 2], [1, 2, 0], "forest edge (2, 0) closes a cycle"),
            ([0, 3], [1, 4], "forest has 2 edges; expected n - c = 3"),
            ([0, 1, 0], [1, 2, 2], "forest edge (0, 2) closes a cycle"),
        ],
        ids=["non-edge", "out-of-range", "cycle", "edge-count", "misses-component"],
    )
    def test_rejects_each_corruption_with_its_message(self, src, dst, message):
        # A triangle {0, 1, 2} and an edge {3, 4}: n - c = 3.  The last
        # forest has the right size but spans only the triangle, so it
        # must close a cycle there.
        g = disjoint_union_edges([clique(3), line_graph(2)])
        with pytest.raises(VerificationError) as exc:
            verify_spanning_forest(g, np.array(src), np.array(dst))
        assert str(exc.value) == message

    def test_accepts_serial_forest(self):
        g = disjoint_union_edges([clique(5), star_graph(4)])
        _, forest = serial_spanning_forest(g)
        src = np.array([u for u, _ in forest])
        dst = np.array([v for _, v in forest])
        verify_spanning_forest(g, src, dst)


def _snapshot(tracker):
    return (
        tracker.total_work(),
        tracker.total_depth(),
        tracker.sync_count,
        tracker.phase_kind_work(),
        tracker.phase_kind_depth(),
    )


def test_forest_verification_leaves_the_enclosing_tracker_unchanged():
    g = rmat(10, 3000, seed=1)
    src, dst = decomp_spanning_forest(g, beta=0.2, seed=1)
    with tracking() as outer:
        with outer.phase("caller"):
            outer.add("scan", work=7.0, depth=1.0)
        before = _snapshot(outer)
        verify_spanning_forest(g, src, dst)
        # Edge 1 twice and edge 0 dropped: the right count, real edges,
        # rejected by the union-find's cycle check.
        cycle_src = np.append(src[1:], src[1])
        cycle_dst = np.append(dst[1:], dst[1])
        with pytest.raises(VerificationError, match="closes a cycle"):
            verify_spanning_forest(g, cycle_src, cycle_dst)
        assert _snapshot(outer) == before


class TestRepresentativeEdges:
    def test_representative_edges_are_real(self):
        from repro.decomp import contract

        g = random_kregular(300, 4, seed=5)
        dec = decomp_arb(g, beta=0.5, seed=2)
        con = contract(dec, g.num_vertices)
        if con.edge_pairs.size:
            k = con.num_components
            src_comp = con.edge_pairs // k
            dst_comp = con.edge_pairs % k
            rep_u, rep_v = con.representative_edge(src_comp, dst_comp)
            # representatives must be real edges whose endpoints lie in
            # the claimed components
            edges = set(zip(*[a.tolist() for a in g.edge_array()]))
            v2c = con.vertex_to_component
            for u, v, cu, cv in zip(
                rep_u.tolist(), rep_v.tolist(), src_comp.tolist(), dst_comp.tolist()
            ):
                assert (u, v) in edges
                assert v2c[u] == cu and v2c[v] == cv

    def test_missing_pair_raises(self):
        from repro.decomp import contract
        from repro.errors import GraphFormatError

        g = disjoint_union_edges([clique(3), clique(3)])
        dec = decomp_arb(g, beta=0.2, seed=1)
        con = contract(dec, g.num_vertices)
        if con.num_components >= 2 and con.edge_pairs.size == 0:
            with pytest.raises(GraphFormatError):
                con.representative_edge(np.array([0]), np.array([1]))
