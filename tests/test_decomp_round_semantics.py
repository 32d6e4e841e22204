"""Surgical tests of the round kernels' CRCW semantics.

These pin down the *exact* behavioural difference between Algorithm 2
and Algorithm 3 on hand-built race scenarios: two BFS centers reaching
the same unvisited vertex in the same round.

* Decomp-Min: the center with the smaller fractional shift delta' must
  win the writeMin — deterministically, whatever the edge order.
* Decomp-Arb: some single center wins (we don't prescribe which), the
  loser records an inter-component edge, and the winner's claiming
  edge is deleted.

It also pins the rounds' fixed cost: a round reads no context var, in
the decompositions and in the BFS family alike.
"""

import sys
from contextlib import nullcontext

import numpy as np
import pytest

import repro.runtime.context as context_module
from repro.connectivity import hybrid_bfs_cc
from repro.decomp import decomp_arb, decomp_min
from repro.decomp.base import DecompState
from repro.engine.backend import use_backend
from repro.engine.kernels import _PAIR_INF, arb_round, min_round
from repro.graphs.builder import from_edges
from repro.graphs.generators import line_graph
from repro.pram.cost import tracking
from repro.resilience.faults import parse_fault_plan


def race_graph():
    """A path a - w - b: centers at a=0 and b=2 race for w=1."""
    return from_edges(np.array([0, 1]), np.array([1, 2]), num_vertices=3)


def prepared_state(graph, beta=0.2, seed=1):
    """A DecompState with vertices 0 and 2 already centers, frontier set."""
    state = DecompState(graph, beta, seed, "permutation")
    state.C[0] = 0
    state.C[2] = 2
    state.visited = 2
    state.frontier = np.array([0, 2], dtype=np.int64)
    return state


class TestMinRoundSemantics:
    @pytest.mark.parametrize("winner", [0, 2])
    def test_smaller_frac_wins_the_writemin(self, winner):
        graph = race_graph()
        state = prepared_state(graph)
        loser = 2 - winner
        # rig the tie-break draws: winner's delta' strictly smaller
        state.schedule.frac = np.zeros(3, dtype=np.int64)
        state.schedule.frac[winner] = 10
        state.schedule.frac[loser] = 20
        pair = np.full(3, _PAIR_INF, dtype=np.int64)
        with tracking():
            next_frontier = min_round(state, pair)
        assert state.C[1] == winner
        assert next_frontier.tolist() == [1]
        # exactly the loser's edge to w survives as inter (plus nothing
        # else: a-w and b-w are the only edges and the winner's is intra)
        assert state.visited == 3

    def test_equal_frac_ties_break_by_smaller_center(self):
        graph = race_graph()
        state = prepared_state(graph)
        state.schedule.frac = np.full(3, 7, dtype=np.int64)
        pair = np.full(3, _PAIR_INF, dtype=np.int64)
        with tracking():
            min_round(state, pair)
        assert state.C[1] == 0  # encoded pair breaks ties by center id

    def test_loser_edge_recorded_as_inter(self):
        graph = race_graph()
        state = prepared_state(graph)
        state.schedule.frac = np.array([5, 0, 9], dtype=np.int64)
        pair = np.full(3, _PAIR_INF, dtype=np.int64)
        with tracking():
            min_round(state, pair)
        dec = state.finish()
        # w joined center 0; the (2, w) direction is inter: labels (2, 0)
        pairs = set(zip(dec.inter_src.tolist(), dec.inter_dst.tolist()))
        assert (2, 0) in pairs

    def test_visited_neighbor_classified_in_phase_one(self):
        # triangle 0-1-2 with all three vertices already in different
        # components: every edge must come out inter, no new frontier
        graph = from_edges(np.array([0, 1, 2]), np.array([1, 2, 0]))
        state = DecompState(graph, 0.2, 1, "permutation")
        state.C[:] = np.array([0, 1, 2])
        state.visited = 3
        state.frontier = np.array([0, 1, 2], dtype=np.int64)
        pair = np.full(3, _PAIR_INF, dtype=np.int64)
        with tracking():
            next_frontier = min_round(state, pair)
        assert next_frontier.size == 0
        dec = state.finish()
        assert dec.num_inter_directed == 6  # all directed edges survive


class TestArbRoundSemantics:
    def test_single_winner_and_loser_inter_edge(self):
        graph = race_graph()
        state = prepared_state(graph)
        with tracking():
            next_frontier = arb_round(state)
        w_comp = int(state.C[1])
        assert w_comp in (0, 2)
        assert next_frontier.tolist() == [1]
        dec = state.finish()
        pairs = set(zip(dec.inter_src.tolist(), dec.inter_dst.tolist()))
        loser = 2 - w_comp
        assert (loser, w_comp) in pairs
        # the winner's claiming edge was deleted (intra): only 1 pair
        assert len(dec.inter_src) == 1

    def test_same_component_double_visit_not_inter(self):
        # square 0-1, 0-3, 2-1, 2-3 with 0, 2 in the SAME component:
        # both claim a neighbor; no inter edges can appear
        graph = from_edges(np.array([0, 0, 2, 2]), np.array([1, 3, 1, 3]))
        state = DecompState(graph, 0.2, 1, "permutation")
        state.C[0] = 0
        state.C[2] = 0  # same component, two frontier vertices
        state.visited = 2
        state.frontier = np.array([0, 2], dtype=np.int64)
        with tracking():
            next_frontier = arb_round(state)
        assert sorted(next_frontier.tolist()) == [1, 3]
        dec = state.finish()
        assert dec.num_inter_directed == 0

    def test_arb_ignores_frac_values(self):
        # with rigged frac favouring center 2, arb's winner is decided
        # by edge order, not frac: the outcome must be identical when
        # frac values are swapped
        def run(frac):
            graph = race_graph()
            state = prepared_state(graph)
            state.schedule.frac = np.array(frac, dtype=np.int64)
            with tracking():
                arb_round(state)
            return int(state.C[1])

        assert run([0, 0, 99]) == run([99, 0, 0])


    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize(
        "flip, winner, kept",
        [
            # First contender wins w=1: the edge 2->1 loses to label 0.
            (False, 0, [(2, 0, 2, 1), (2, 4, 2, 4)]),
            # cas_flip hands w=1 to the last contender: 0->1 loses to 2.
            (True, 2, [(0, 2, 0, 1), (2, 4, 2, 4)]),
        ],
    )
    def test_one_round_keeps_exactly_the_inter_edges(self, backend, flip, winner, kept):
        # Frontier {0, 2} in components 0 and 2.  Vertex 0's edges run
        # to the contested w=1, to 3 (already in component 0) and to
        # the unvisited 5 (uncontested); vertex 2's to w=1 and to the
        # visited foreign vertex 4 (component 4).  Edge stream order:
        # 0->1, 0->3, 0->5, 2->1, 2->4.
        graph = from_edges(np.array([0, 0, 0, 2, 2]), np.array([1, 3, 5, 1, 4]))
        plan = parse_fault_plan("cas_flip:p=1.0", seed=0)
        # A state runs under the context it was built in (its backend
        # and, when flipping, the armed plan), as in one engine run.
        with use_backend(backend), plan.activate() if flip else nullcontext():
            state = DecompState(graph, 0.2, 1, "permutation")
            for v, label in ((0, 0), (2, 2), (3, 0), (4, 4)):
                state.C[v] = label
            state.visited = 4
            state.frontier = np.array([0, 2], dtype=np.int64)
            next_frontier = arb_round(state)
        if flip:
            assert plan.fired
        assert next_frontier.tolist() == [1, 5]
        assert state.C[1] == winner and state.C[5] == 0
        dec = state.finish()
        got = list(
            zip(
                dec.inter_src.tolist(),
                dec.inter_dst.tolist(),
                dec.orig_src.tolist(),
                dec.orig_dst.tolist(),
            )
        )
        assert got == kept
        # Neither claiming edge (winner -> 1, 0 -> 5) survives.
        claims = {(winner, 1), (0, 5)}
        assert not claims & {(u, w) for _, _, u, w in got}


class TestRoundEdgeConservation:
    @pytest.mark.parametrize("kernel", ["min", "arb"])
    def test_every_frontier_edge_accounted(self, kernel):
        """intra(deleted) + inter(kept) must cover every expanded edge."""
        rng = np.random.default_rng(5)
        graph = from_edges(
            rng.integers(0, 30, size=80), rng.integers(0, 30, size=80),
            num_vertices=30,
        )
        state = DecompState(graph, 0.3, 2, "permutation")
        # seed three centers
        for c in (0, 7, 13):
            state.C[c] = c
        state.visited = 3
        state.frontier = np.array([0, 7, 13], dtype=np.int64)
        frontier_edges = int(
            (graph.offsets[state.frontier + 1] - graph.offsets[state.frontier]).sum()
        )
        with tracking():
            if kernel == "min":
                pair = np.full(30, _PAIR_INF, dtype=np.int64)
                winners = min_round(state, pair)
            else:
                winners = arb_round(state)
        dec = state.finish()
        # each expanded edge is either inter (recorded) or intra
        # (dropped); the claims equal the number of new vertices
        assert dec.num_inter_directed <= frontier_edges
        assert winners.size == state.visited - 3


#: Context reads a decomposition may make per level, outside its rounds
#: (building the state and its schedule, opening the engine run).
CONTEXT_READS_PER_LEVEL = 12


def _count_context_reads(fn):
    """Run *fn* with every ``repro`` module's ``current_context`` counted."""
    original = context_module.current_context
    calls = 0

    def counting():
        nonlocal calls
        calls += 1
        return original()

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and getattr(module, "current_context", None) is original
            ):
                mp.setattr(module, "current_context", counting)
        result = fn()
    return calls, result


class TestContextReadsPerRound:
    """The kernels take the context from the state, resolved once per level."""

    @pytest.mark.parametrize("decompose", [decomp_min, decomp_arb])
    def test_reads_do_not_grow_with_rounds(self, decompose):
        runs = []
        for n in (2_000, 20_000):
            graph = line_graph(n)
            with tracking():
                reads, dec = _count_context_reads(lambda: decompose(graph, 0.2, seed=1))
            assert reads <= 2 * dec.num_rounds + CONTEXT_READS_PER_LEVEL
            runs.append((reads, dec.num_rounds))
        (small, small_rounds), (large, large_rounds) = runs
        assert large - small <= 2 * (large_rounds - small_rounds)


class TestBFSContextReadsPerTraversal:
    """The BFS state resolves the context once, when it is built."""

    @pytest.mark.parametrize("traverse", [hybrid_bfs_cc], ids=["hybrid_bfs_cc"])
    def test_reads_do_not_grow_with_rounds(self, traverse):
        # One component, one traversal: 2,000 and 20,000 rounds.
        reads = []
        for n in (2_000, 20_000):
            graph = line_graph(n)
            with tracking():
                count, _ = _count_context_reads(lambda: traverse(graph))
            reads.append(count)
        assert reads[0] == reads[1]
        assert reads[0] <= CONTEXT_READS_PER_LEVEL
