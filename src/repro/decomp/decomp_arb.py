"""Decomp-Arb: the paper's Algorithm 3 (arbitrary tie-breaking).

The paper's key engineering contribution: when several BFS frontiers
reach the same unvisited vertex in one round, let an *arbitrary* one
win (a bare CAS race) instead of the minimum-shift one.  Theorem 2
shows the decomposition quality only degrades from beta*m to 2*beta*m
expected inter-component edges, so the connectivity algorithm stays
linear-work for beta < 1/2 — and the implementation needs just one
pass over the frontier's edges per round and one machine word of state
per vertex, instead of Decomp-Min's two synchronized passes over a
(delta', component) pair.

As an engine configuration this variant is::

    tie-break = arb (CAS race), direction = always-push

The round kernel itself lives in :func:`repro.engine.kernels.arb_round`;
see that docstring for the vectorized CRCW round semantics.
"""

from __future__ import annotations

from repro.decomp.base import Decomposition, DecompState, validate_beta
from repro.engine.core import TraversalEngine
from repro.engine.direction import AlwaysPush
from repro.engine.tiebreak import ArbTiebreak
from repro.graphs.csr import CSRGraph

__all__ = ["decomp_arb"]


def decomp_arb(
    graph: CSRGraph,
    beta: float,
    seed: int = 1,
    schedule_mode: str = "permutation",
    round_budget=None,
) -> Decomposition:
    """Run Decomp-Arb (Algorithm 3) on *graph*.

    Parameters
    ----------
    beta:
        Decomposition parameter in (0, 1); expected inter-component
        edges <= 2*beta*m (Theorem 2), partition diameter
        O(log n / beta) w.h.p.
    seed:
        Seed for the shift schedule and tie-break draws.
    schedule_mode:
        ``"permutation"`` (the paper's simulation, default) or
        ``"exponential"`` (exact draws).
    round_budget:
        Optional :class:`~repro.resilience.policy.RoundBudget`; the
        default is the generous O(log n / beta)-derived bound.

    Complexity: O(m) expected work, O(log^2 n / beta) depth w.h.p.
    """
    validate_beta(beta)
    state = DecompState(
        graph, beta, seed, schedule_mode,
        budget=round_budget, algorithm="decomp-arb",
    )
    engine = TraversalEngine(
        state,
        direction=AlwaysPush(sparse_phase="bfsMain"),
        tiebreak=ArbTiebreak(),
    )
    engine.run()
    return state.finish()
