"""Unit tests for the pull sweep, parallel BFS and direction-optimizing BFS."""

import numpy as np
import pytest

from repro.bfs.hybrid_bfs import hybrid_bfs
from repro.bfs.parallel_bfs import parallel_bfs
from repro.connectivity.hybrid_bfs_cc import bfs_from_source, hybrid_bfs_cc
from repro.connectivity.multistep import multistep_cc
from repro.decomp import decomp_arb_hybrid, decomp_min_hybrid
from repro.engine import BFSTreeState, TraversalEngine
from repro.engine.direction import AlwaysPull, FractionHybrid, LigraEdgeHybrid
from repro.engine.kernels import bottom_up_step
from repro.errors import ParameterError
from repro.graphs.generators import (
    binary_tree,
    clique,
    grid3d,
    line_graph,
    random_kregular,
    star_graph,
)
from repro.pram.cost import tracking


def nx_distances(g, source):
    """Reference BFS distances via networkx."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    s, d = g.edge_array()
    G.add_edges_from(zip(s.tolist(), d.tolist()))
    dist = nx.single_source_shortest_path_length(G, source)
    out = np.full(g.num_vertices, -1, dtype=np.int64)
    for v, dv in dist.items():
        out[v] = dv
    return out


class TestParallelBFS:
    @pytest.mark.parametrize(
        "graph",
        [
            line_graph(30),
            star_graph(10),
            clique(8),
            grid3d(4),
            binary_tree(4),
            random_kregular(300, 3, seed=1),
        ],
        ids=["line", "star", "clique", "grid", "tree", "random"],
    )
    def test_distances_match_networkx(self, graph):
        got = parallel_bfs(graph, 0).distances
        assert np.array_equal(got, nx_distances(graph, 0))

    def test_parents_form_valid_tree(self):
        g = grid3d(4)
        res = parallel_bfs(g, 0)
        # every non-source visited vertex's parent is one hop closer
        for v in range(1, g.num_vertices):
            p = res.parents[v]
            assert p >= 0
            assert res.distances[v] == res.distances[p] + 1

    def test_unreached_vertices_marked(self):
        from repro.graphs.generators import disjoint_union_edges

        g = disjoint_union_edges([line_graph(5), line_graph(5)])
        res = parallel_bfs(g, 0)
        assert (res.distances[5:] == -1).all()
        assert res.num_visited == 5

    def test_num_rounds_is_eccentricity_plus_one(self):
        res = parallel_bfs(line_graph(20), 0)
        assert res.num_rounds == 20  # last round discovers nothing

    def test_bad_source(self):
        with pytest.raises(ValueError):
            parallel_bfs(line_graph(3), 5)


class TestSourceRange:
    """Both BFS states reject a source outside [0, n) before any write."""

    @pytest.mark.parametrize("source", [-1, 6])
    def test_component_labeling_rejects_without_writing(self, source):
        g = line_graph(6)
        labels = np.full(6, -1, dtype=np.int64)
        labels[2] = 9
        before = labels.copy()
        with pytest.raises(ParameterError, match="out of range") as err:
            bfs_from_source(g, source, labels, 4)
        assert isinstance(err.value, ValueError)
        assert np.array_equal(labels, before)

    @pytest.mark.parametrize("source", [-1, 6])
    @pytest.mark.parametrize("bfs", [parallel_bfs, hybrid_bfs])
    def test_bfs_tree_rejects(self, bfs, source):
        with pytest.raises(ParameterError, match="out of range") as err:
            bfs(line_graph(6), source)
        assert isinstance(err.value, ValueError)


def test_pull_without_visited_bitmap_rejects_before_writing():
    # A pull sweeps the visited bitmap, which an untracked state lacks;
    # the refusal is a typed error (not an assert, which ``python -O``
    # strips), raised before the round writes anything.
    state = BFSTreeState(line_graph(6), 0, track_visited=False)
    parents, distances = state.parents.copy(), state.distances.copy()
    with pytest.raises(ParameterError, match="track_visited"):
        TraversalEngine(state, direction=AlwaysPull()).run()
    assert np.array_equal(state.parents, parents)
    assert np.array_equal(state.distances, distances)


class TestDenseThreshold:
    """NaN and negative thresholds are rejected; above 1 means never pull."""

    BAD = [float("nan"), -1.0, -0.01]

    @pytest.mark.parametrize("threshold", BAD)
    def test_policies_reject(self, threshold):
        with pytest.raises(ParameterError, match="dense_threshold"):
            FractionHybrid(threshold=threshold)
        with pytest.raises(ParameterError, match="dense_threshold"):
            LigraEdgeHybrid(clique(3), threshold=threshold)

    @pytest.mark.parametrize("threshold", BAD)
    def test_entry_points_reject(self, threshold):
        g = clique(5)
        with pytest.raises(ParameterError):
            hybrid_bfs(g, 0, dense_threshold=threshold)
        with pytest.raises(ParameterError):
            hybrid_bfs_cc(g, dense_threshold=threshold)
        with pytest.raises(ParameterError):
            multistep_cc(g, dense_threshold=threshold)
        for decomp in (decomp_arb_hybrid, decomp_min_hybrid):
            with pytest.raises(ParameterError):
                decomp(g, 0.2, dense_threshold=threshold)

    def test_bfs_from_source_rejects_without_writing(self):
        labels = np.full(5, -1, dtype=np.int64)
        with pytest.raises(ParameterError):
            bfs_from_source(clique(5), 0, labels, 3, dense_threshold=float("nan"))
        assert (labels == -1).all()

    def test_above_one_never_pulls(self):
        g = random_kregular(300, 10, seed=7)
        res = hybrid_bfs(g, 0, dense_threshold=2.0)
        assert set(res.directions) == {"top-down"}
        with tracking():
            dec = decomp_arb_hybrid(g, 0.2, dense_threshold=2.0)
        assert dec.dense_rounds == []


class TestHybridBFS:
    @pytest.mark.parametrize(
        "graph",
        [
            line_graph(30),
            clique(12),
            grid3d(4),
            random_kregular(400, 4, seed=2),
            star_graph(50),
        ],
        ids=["line", "clique", "grid", "random", "star"],
    )
    def test_distances_match_plain_bfs(self, graph):
        plain = parallel_bfs(graph, 0).distances
        hybrid = hybrid_bfs(graph, 0).distances
        assert np.array_equal(plain, hybrid)

    def test_dense_rounds_triggered_on_dense_graph(self):
        # needs a graph whose mid-BFS frontier is >20% of the remaining
        # unvisited vertices while some remain — a dense random graph
        g = random_kregular(300, 10, seed=7)
        res = hybrid_bfs(g, 0)
        assert "bottom-up" in res.directions

    def test_line_never_goes_dense(self):
        res = hybrid_bfs(line_graph(100), 0)
        assert set(res.directions) == {"top-down"}

    def test_force_direction_top_down(self):
        g = clique(20)
        res = hybrid_bfs(g, 0, force_direction="top-down")
        assert set(res.directions) == {"top-down"}
        assert np.array_equal(res.distances, parallel_bfs(g, 0).distances)

    def test_force_direction_bottom_up(self):
        g = clique(20)
        res = hybrid_bfs(g, 0, force_direction="bottom-up")
        assert set(res.directions) == {"bottom-up"}
        assert np.array_equal(res.distances, parallel_bfs(g, 0).distances)

    def test_bad_force_direction(self):
        with pytest.raises(ParameterError, match="force_direction"):
            hybrid_bfs(clique(3), 0, force_direction="sideways")

    def test_parents_consistent(self):
        g = random_kregular(200, 5, seed=3)
        res = hybrid_bfs(g, 0)
        for v in range(g.num_vertices):
            if v != 0 and res.distances[v] > 0:
                assert res.distances[res.parents[v]] == res.distances[v] - 1


class TestBottomUpStep:
    def test_adopts_frontier_neighbor(self):
        g = star_graph(5)  # hub 0
        frontier = np.zeros(5, dtype=bool)
        frontier[0] = True
        visited = frontier.copy()
        winners, parents, examined = bottom_up_step(
            g, frontier, np.flatnonzero(~visited)
        )
        assert sorted(winners.tolist()) == [1, 2, 3, 4]
        assert (parents == 0).all()
        assert examined == 4  # each leaf exits after its single edge

    def test_early_exit_cost_less_than_full_scan(self):
        g = clique(40)
        frontier = np.zeros(40, dtype=bool)
        frontier[:20] = True
        visited = frontier.copy()
        with tracking() as t:
            _, _, examined = bottom_up_step(g, frontier, np.flatnonzero(~visited))
        # every unvisited vertex should find a frontier neighbor fast
        assert examined < g.num_directed / 2

    def test_no_hit_scans_everything(self):
        g = line_graph(10)
        frontier = np.zeros(10, dtype=bool)
        frontier[0] = True
        visited = frontier.copy()
        winners, _, examined = bottom_up_step(g, frontier, np.flatnonzero(~visited))
        assert winners.tolist() == [1]
        # vertices 2..9 scanned all their edges fruitlessly
        assert examined >= 14

    def test_all_visited(self):
        g = clique(4)
        with tracking() as t:
            winners, parents, examined = bottom_up_step(
                g, np.ones(4, dtype=bool), np.zeros(0, dtype=np.int64)
            )
        assert winners.size == 0 and examined == 0
        assert t.snapshot() == {}  # nothing to sweep, nothing charged
