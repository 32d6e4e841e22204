"""Property tests for the engine's pluggable policy surface.

Two families of guarantees:

* **Combination validity** — every built-in tie-break x direction
  combination, plus a test-local always-pull rule (configurations no
  named variant uses, like a pull-only writeMin decomposition),
  produces a *valid* decomposition on every test graph: fully labeled,
  centers own their partitions, partitions connected, the recorded
  inter-edge count matching a from-scratch recount, one frontier
  appearance per vertex, and deterministic under a fixed seed.
* **Extension points** — a custom direction rule, a plain subclass
  passed in as an instance, is actually consulted, and the Decomp-Min-Hybrid
  variant behaves as its policy table says (collapses to Decomp-Min
  when the dense switch can never fire, goes dense where Arb-Hybrid
  does, and yields a verified connectivity labeling end-to-end).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import decomposition_stats
from repro.analysis.verify import verify_decomposition, verify_labeling
from repro.connectivity import decomp_cc
from repro.decomp import DECOMP_VARIANTS, decomp_min, decomp_min_hybrid
from repro.decomp.base import DecompState
from repro.engine import (
    AlwaysPush,
    ArbTiebreak,
    DirectionPolicy,
    FractionHybrid,
    LigraEdgeHybrid,
    MinTiebreak,
    TraversalEngine,
    TraversalState,
    end_round,
)
from repro.errors import ParameterError
from repro.pram.cost import tracking

from tests.conftest import _zoo

#: Graphs the combination sweep runs on: every structural corner the
#: zoo offers (isolated vertices, a single edge, trees, dense blobs,
#: multiple components) without the largest instances.
COMBO_GRAPHS = [
    "empty5",
    "single",
    "one-edge",
    "triangle",
    "path",
    "star",
    "clique",
    "tree",
    "grid",
    "gnm-dense",
    "union",
]

BETA, SEED = 0.3, 3


@pytest.fixture(scope="module")
def zoo():
    return _zoo()


class AlwaysPull(DirectionPolicy):
    """Every round read-based: no library caller wants it, but it is legal."""

    def go_dense(self, engine, state, claimed):
        return True


#: Name -> factory from the input graph, for every built-in policy and
#: the test-local always-pull rule.
DIRECTIONS = {
    "fraction": lambda graph: FractionHybrid(),
    "ligra-edges": LigraEdgeHybrid,
    "pull": lambda graph: AlwaysPull(),
    "push": lambda graph: AlwaysPush(),
}
TIEBREAKS = {"arb": ArbTiebreak, "min": MinTiebreak}


def _run_combo(graph, tiebreak: str, direction: str):
    state = DecompState(graph, BETA, SEED, "permutation")
    with tracking():
        TraversalEngine(
            state,
            direction=DIRECTIONS[direction](graph),
            tiebreak=TIEBREAKS[tiebreak](),
        ).run()
    return state.finish()


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
@pytest.mark.parametrize("tiebreak", sorted(TIEBREAKS))
@pytest.mark.parametrize("gname", COMBO_GRAPHS)
def test_every_policy_combo_yields_valid_decomposition(
    gname, tiebreak, direction, zoo
):
    graph = zoo[gname]
    dec = _run_combo(graph, tiebreak, direction)

    # Structural validity: labeled, center-owned, connected partitions.
    assert not np.any(dec.labels == -1)
    verify_decomposition(graph, dec.labels, check_connected=True)

    # The recorded inter-edge list matches a from-scratch recount: every
    # directed edge whose endpoints ended in different partitions,
    # exactly once — regardless of which round kind classified it.
    src, dst = graph.edge_array()
    expected_inter = int(np.sum(dec.labels[src] != dec.labels[dst]))
    assert dec.num_inter_directed == expected_inter
    assert np.all(dec.inter_src != dec.inter_dst)
    assert np.array_equal(dec.inter_src, dec.labels[dec.orig_src])
    assert np.array_equal(dec.inter_dst, dec.labels[dec.orig_dst])

    # Every vertex appears on exactly one round's frontier.
    assert sum(dec.frontier_sizes) == graph.num_vertices


@pytest.mark.parametrize("tiebreak", sorted(TIEBREAKS))
def test_policy_combos_are_deterministic(tiebreak, zoo):
    a = _run_combo(zoo["gnm-dense"], tiebreak, "fraction")
    b = _run_combo(zoo["gnm-dense"], tiebreak, "fraction")
    assert np.array_equal(a.labels, b.labels)
    assert a.frontier_sizes == b.frontier_sizes
    assert a.dense_rounds == b.dense_rounds


class TestMinHybrid:
    def test_registered_everywhere(self):
        assert DECOMP_VARIANTS["min-hybrid"] is decomp_min_hybrid

    def test_matches_min_when_threshold_unreachable(self, zoo):
        graph = zoo["gnm-dense"]
        with tracking():
            plain = decomp_min(graph, 0.2, seed=1)
        with tracking():
            hybrid = decomp_min_hybrid(graph, 0.2, seed=1, dense_threshold=2.0)
        assert np.array_equal(plain.labels, hybrid.labels)
        assert plain.frontier_sizes == hybrid.frontier_sizes
        assert hybrid.dense_rounds == []

    def test_goes_dense_on_dense_graph(self, zoo):
        with tracking():
            dec = decomp_min_hybrid(zoo["gnm-dense"], 0.2, seed=1)
        assert dec.dense_rounds  # the point of the variant
        verify_decomposition(zoo["gnm-dense"], dec.labels)

    def test_quality_stats_within_arb_bound(self, zoo):
        graph = zoo["random"]
        with tracking():
            dec = decomp_min_hybrid(graph, 0.2, seed=1)
        stats = decomposition_stats(graph, dec, 0.2, "min-hybrid")
        # Dense rounds adopt arbitrarily, so the variant carries the
        # arbitrary rule's 2*beta bound (a generous expectation bound;
        # a single seed should sit well under it on a random graph).
        assert stats.theoretical_fraction_bound == pytest.approx(0.4)
        assert stats.inter_edge_fraction <= stats.theoretical_fraction_bound
        assert stats.max_radius <= stats.theoretical_radius_bound

    def test_end_to_end_connectivity_verifies(self, zoo):
        graph = zoo["union"]
        with tracking():
            result = decomp_cc(graph, variant="min-hybrid", beta=0.2, seed=1)
        verify_labeling(graph, result.labels)

    def test_validates_beta(self, zoo):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ParameterError):
                decomp_min_hybrid(zoo["triangle"], bad)


class TestRegistration:
    """A custom policy needs no registration: the engine takes an instance."""

    def test_custom_direction_rule_is_consulted(self, zoo):
        class DenseFromRoundTwo(DirectionPolicy):
            def go_dense(self, engine, state, claimed):
                return state.round >= 2 and state.visited_count < state.n

        graph = zoo["grid"]
        state = DecompState(graph, BETA, SEED, "permutation")
        with tracking():
            TraversalEngine(
                state,
                direction=DenseFromRoundTwo(),
                tiebreak=ArbTiebreak(),
            ).run()
        dec = state.finish()
        assert dec.dense_rounds and min(dec.dense_rounds) == 2
        verify_decomposition(graph, dec.labels)


class TestEngineEdges:
    def test_end_round_rejects_unknown_packing(self):
        with tracking():
            with pytest.raises(ParameterError):
                end_round(4, packing="bogus")

    def test_pull_without_kernel_raises(self, zoo):
        class PushOnlyState(TraversalState):
            def __init__(self, n):
                self._n = n
                self._frontier = np.zeros(0, dtype=np.int64)

            @property
            def n(self):
                return self._n

            @property
            def visited_count(self):
                return 0

            @property
            def done(self):
                return False

            @property
            def frontier(self):
                return self._frontier

            def initial_frontier(self):
                return np.array([0], dtype=np.int64)

            def begin_round(self, engine, next_frontier):
                self._frontier = next_frontier

        with tracking():
            with pytest.raises(NotImplementedError):
                TraversalEngine(PushOnlyState(4), direction=AlwaysPull()).run()

    def test_ligra_rule_on_decomposition_state(self, zoo):
        # Ligra's edge-count switch is a legal decomposition direction
        # policy too — cross-family reuse the engine makes possible.
        graph = zoo["clique"]
        state = DecompState(graph, BETA, SEED, "permutation")
        with tracking():
            TraversalEngine(
                state,
                direction=LigraEdgeHybrid(graph),
                tiebreak=MinTiebreak(),
            ).run()
        verify_decomposition(graph, state.finish().labels)
