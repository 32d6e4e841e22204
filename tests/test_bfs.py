"""Unit tests for the pull sweep and the BFS family's entry points."""

import numpy as np
import pytest

from repro.connectivity.hybrid_bfs_cc import bfs_from_source
from repro.decomp import decomp_arb_hybrid, decomp_min_hybrid
from repro.engine.direction import FractionHybrid, LigraEdgeHybrid
from repro.engine.kernels import bottom_up_step
from repro.errors import ParameterError
from repro.graphs.generators import clique, line_graph, random_kregular, star_graph
from repro.pram.cost import tracking


class TestSourceRange:
    """The BFS state rejects a source outside [0, n) before any write."""

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
        with tracking():
            dec = decomp_arb_hybrid(g, 0.2, dense_threshold=2.0)
        assert dec.dense_rounds == []


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
