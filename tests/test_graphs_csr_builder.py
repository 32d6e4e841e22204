"""Unit tests for the CSR representation and edge-list builders."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs.builder import dedup_edge_list, from_directed_edges, from_edges
from repro.graphs.csr import CSRGraph


class TestCSRGraphValidation:
    def test_minimal_empty(self):
        g = CSRGraph(offsets=np.array([0]), targets=np.array([], dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_directed == 0

    def test_rejects_offsets_not_starting_at_zero(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(offsets=np.array([1, 2]), targets=np.array([0, 0]))

    def test_rejects_offsets_end_mismatch(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(offsets=np.array([0, 3]), targets=np.array([0]))

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(offsets=np.array([0, 2, 1, 3]), targets=np.array([0, 1, 2]))

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(offsets=np.array([0, 1]), targets=np.array([5]))
        with pytest.raises(GraphFormatError):
            CSRGraph(offsets=np.array([0, 1]), targets=np.array([-1]))

    def test_rejects_2d_arrays(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(offsets=np.zeros((2, 2)), targets=np.array([], dtype=np.int64))


class TestCSRGraphAccessors:
    @pytest.fixture()
    def g(self):
        # 0 -> 1,2 ; 1 -> 0 ; 2 -> 0 (symmetric triangle minus one edge)
        return from_edges(np.array([0, 0]), np.array([1, 2]))

    def test_sizes(self, g):
        assert g.num_vertices == 3
        assert g.num_directed == 4
        assert g.num_edges == 2

    def test_degrees(self, g):
        assert g.degrees.tolist() == [2, 1, 1]

    @pytest.mark.parametrize("trusted", [False, True], ids=["validated", "trusted"])
    def test_degrees_cached_read_only(self, g, trusted):
        if trusted:
            g = CSRGraph.trusted(g.offsets.copy(), g.targets.copy())
        degrees = g.degrees
        assert np.array_equal(degrees, np.diff(g.offsets))
        assert degrees.dtype == np.int64
        assert g.degrees is degrees  # computed once per instance
        assert not degrees.flags.writeable
        with pytest.raises(ValueError):
            degrees[0] = 7

    def test_expand_targets_counts_are_the_degrees(self, g):
        frontier = np.array([2, 0, 0], dtype=np.int64)
        counts, targets = g.expand_targets(frontier)
        assert counts.tolist() == g.degrees[frontier].tolist()
        counts[0] = 9  # a fresh array, not a view of the cache
        assert g.degrees.tolist() == [2, 1, 1]
        assert targets.size == 5

    def test_neighbors(self, g):
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert g.neighbors(1).tolist() == [0]

    def test_iter_edges(self, g):
        edges = set(g.iter_edges())
        assert (0, 1) in edges and (1, 0) in edges
        assert len(edges) == 4

    def test_edge_array_sources_repeat_by_degree(self, g):
        src, dst = g.edge_array()
        assert src.tolist() == [0, 0, 1, 2]

    def test_expand_groups_by_frontier_vertex(self, g):
        src, dst = g.expand(np.array([1, 0]))
        assert src.tolist() == [1, 0, 0]
        assert dst[0] == 0

    def test_expand_empty_frontier(self, g):
        src, dst = g.expand(np.array([], dtype=np.int64))
        assert src.size == 0 and dst.size == 0

    def test_expand_matches_neighbors(self, g):
        src, dst = g.expand(np.array([0]))
        assert dst.tolist() == g.neighbors(0).tolist()

    def test_check_symmetric(self, g):
        assert g.check_symmetric()
        asym = from_directed_edges(np.array([0]), np.array([1]), 2)
        assert not asym.check_symmetric()


class TestFromEdges:
    def test_symmetrizes(self):
        g = from_edges(np.array([0]), np.array([1]))
        assert (0, 1) in set(g.iter_edges())
        assert (1, 0) in set(g.iter_edges())

    def test_removes_self_loops(self):
        g = from_edges(np.array([0, 1]), np.array([0, 2]), num_vertices=3)
        assert g.num_edges == 1

    def test_removes_duplicates_by_default(self):
        g = from_edges(np.array([0, 1, 0]), np.array([1, 0, 1]))
        assert g.num_edges == 1

    def test_keeps_duplicates_when_asked(self):
        g = from_edges(
            np.array([0, 0]), np.array([1, 1]), remove_duplicates=False
        )
        assert g.num_directed == 4
        assert g.symmetric

    def test_num_vertices_override(self):
        g = from_edges(np.array([0]), np.array([1]), num_vertices=10)
        assert g.num_vertices == 10

    def test_empty_edge_list(self):
        g = from_edges(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), num_vertices=4
        )
        assert g.num_vertices == 4 and g.num_edges == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            from_edges(np.array([0]), np.array([5]), num_vertices=2)

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphFormatError):
            from_edges(np.array([-1]), np.array([0]), num_vertices=2)

    @pytest.mark.parametrize("remove_duplicates", [True, False])
    def test_rejects_length_mismatch(self, remove_duplicates):
        # Mirroring [0,1,2] -> [1,2] would give two equal-length arrays
        # (a directed 3-cycle), so the shapes are checked first.
        with pytest.raises(GraphFormatError):
            from_edges(
                np.array([0, 1, 2]),
                np.array([1, 2]),
                remove_duplicates=remove_duplicates,
            )

    def test_rejects_2d_edge_arrays(self):
        with pytest.raises(GraphFormatError):
            from_edges(np.array([[0, 1]]), np.array([[1, 2]]))


class TestFromDirectedEdges:
    def test_exact_edges_kept(self):
        g = from_directed_edges(np.array([0, 0, 2]), np.array([1, 1, 0]), 3)
        assert g.num_directed == 3  # duplicates and direction preserved
        assert g.degrees.tolist() == [2, 0, 1]

    def test_groups_targets_by_source(self):
        g = from_directed_edges(np.array([2, 0, 2]), np.array([1, 2, 0]), 3)
        assert sorted(g.neighbors(2).tolist()) == [0, 1]
        assert g.neighbors(0).tolist() == [2]

    def test_rejects_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            from_directed_edges(np.array([0]), np.array([1, 2]), 3)


class TestDedupEdgeList:
    def test_removes_duplicates_and_loops(self):
        s, d = dedup_edge_list(
            np.array([0, 0, 1, 2]), np.array([1, 1, 1, 0]), num_vertices=3
        )
        pairs = set(zip(s.tolist(), d.tolist()))
        assert pairs == {(0, 1), (2, 0)}

    def test_direction_matters(self):
        s, d = dedup_edge_list(np.array([0, 1]), np.array([1, 0]), num_vertices=2)
        assert len(s) == 2

    def test_empty(self):
        s, d = dedup_edge_list(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5
        )
        assert s.size == 0 and d.size == 0

    def test_large_random_matches_python_set(self):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 50, size=3000)
        dst = rng.integers(0, 50, size=3000)
        s, d = dedup_edge_list(src, dst, num_vertices=50)
        got = set(zip(s.tolist(), d.tolist()))
        want = {(int(a), int(b)) for a, b in zip(src, dst) if a != b}
        assert got == want
