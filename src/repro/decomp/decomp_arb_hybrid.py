"""Decomp-Arb-Hybrid: Decomp-Arb with direction-optimizing rounds.

The paper's third variant applies the Beamer direction-optimizing idea
to Decomp-Arb: when the frontier holds more than 20 % of the remaining
unvisited vertices, the round runs *read-based* — every unvisited
vertex scans its own adjacency list and adopts the component of the
first frontier neighbor it finds, then exits early.  The sweep is
streaming and needs no atomics, which is why it wins on dense
low-diameter graphs (about 2x on rMat2 / com-Orkut in Table 2) even
though connectivity, unlike plain BFS, cannot *skip* edge inspections:
the edges a dense round leaves unclassified must be revisited in a
post-processing **filterEdges** phase that classifies them by the final
labels (the paper marks already-relabeled edges with a sign bit; we
track the deferred set as "the out-edges of vertices whose frontier
round ran dense", which is the same set).

Classification by final labels is exact, not an approximation: a
vertex's component label never changes once assigned, so an edge's
intra/inter status is determined the moment both endpoints are labeled
— which is precisely when the sparse path classifies it too.

As an engine configuration this variant is::

    tie-break = arb (CAS race), direction = fraction hybrid (20 %)

The dense-switch rule (decided on the *claimed* frontier — last
round's BFS winners, excluding freshly started centers) lives in
:class:`repro.engine.direction.FractionHybrid`; the read-based sweep
and the deferred-edge classification live in
:func:`repro.engine.kernels.dense_round` and
:func:`repro.engine.kernels.filter_edges`.
"""

from __future__ import annotations

from repro.decomp.base import Decomposition, DecompState, validate_beta
from repro.engine.core import TraversalEngine
from repro.engine.direction import FractionHybrid
from repro.engine.frontier import DENSE_THRESHOLD
from repro.engine.tiebreak import ArbTiebreak
from repro.graphs.csr import CSRGraph

__all__ = ["decomp_arb_hybrid"]


def decomp_arb_hybrid(
    graph: CSRGraph,
    beta: float,
    seed: int = 1,
    schedule_mode: str = "permutation",
    dense_threshold: float = DENSE_THRESHOLD,
    round_budget=None,
) -> Decomposition:
    """Run Decomp-Arb-Hybrid on *graph*.

    Identical output distribution to :func:`~repro.decomp.decomp_arb.
    decomp_arb` (both break ties arbitrarily; the winners differ only
    by schedule), with the read-based optimization for large frontiers.

    Parameters
    ----------
    dense_threshold:
        Fraction of remaining unvisited vertices above which a round
        runs read-based (paper: 0.20).  The ablation bench sweeps this.
    round_budget:
        Optional :class:`~repro.resilience.policy.RoundBudget` override.
    """
    validate_beta(beta)
    state = DecompState(
        graph, beta, seed, schedule_mode,
        budget=round_budget, algorithm="decomp-arb-hybrid",
    )
    engine = TraversalEngine(
        state,
        direction=FractionHybrid(
            threshold=dense_threshold, sparse_phase="bfsSparse"
        ),
        tiebreak=ArbTiebreak(),
    )
    engine.run()
    return state.finish()
