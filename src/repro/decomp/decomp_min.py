"""Decomp-Min: the paper's Algorithm 2 (faithful Miller-Peng-Xu rule).

The original decomposition: when several BFS frontiers reach the same
unvisited vertex w in one round, the partition whose center has the
*minimum fractional shift* delta' wins — implemented with an atomic
``writeMin`` over (delta', componentID) pairs and therefore requiring
**two** synchronized phases per round:

* **bfsPhase1** — every frontier vertex applies ``writeMin(C[w],
  (delta'_{C2[v]}, C2[v]))`` to its unvisited neighbors; edges to
  already-visited neighbors are classified now (inter iff labels
  differ) and the rest kept provisionally;
* **bfsPhase2** — after a barrier (all writeMins merged), each frontier
  vertex re-reads its provisional edges: if its component's delta' won
  on w, the edge is intra-component and w joins the next frontier (one
  CAS so w is added once); otherwise inter iff the winner's component
  differs.

The paper stores the (conflict-value, componentID) pair in a single
array C of pairs "instead of keeping two arrays ... but this leads to
an additional cache miss per vertex visit"; we mirror that with one
int64 per vertex holding the encoded pair
(:func:`repro.primitives.atomics.encode_pair`), and the benchmark suite
carries an ablation that charges the two-array layout's extra traffic.

The two phases and the extra per-vertex state are exactly the costs
Decomp-Arb removes; the experiments reproduce the resulting 1.3-2.3x
gap (Table 2).

As an engine configuration this variant is::

    tie-break = min (writeMin pairs), direction = always-push

The round kernel lives in :func:`repro.engine.kernels.min_round`; the
writeMin pair array is owned by :class:`repro.engine.tiebreak.MinTiebreak`.
"""

from __future__ import annotations

from repro.decomp.base import Decomposition, DecompState, validate_beta
from repro.engine.core import TraversalEngine
from repro.engine.direction import AlwaysPush
from repro.engine.tiebreak import MinTiebreak
from repro.graphs.csr import CSRGraph

__all__ = ["decomp_min"]


def decomp_min(
    graph: CSRGraph,
    beta: float,
    seed: int = 1,
    schedule_mode: str = "permutation",
    round_budget=None,
) -> Decomposition:
    """Run Decomp-Min (Algorithm 2) on *graph*.

    The theory-faithful variant: expected inter-component edges
    <= beta*m, partition diameter O(log n / beta) w.h.p.; O(m) expected
    work, O(log^2 n / beta) depth w.h.p. — at the practical price of
    two synchronized passes per round.  ``round_budget`` optionally
    overrides the default O(log n / beta)-derived round bound.
    """
    validate_beta(beta)
    state = DecompState(
        graph, beta, seed, schedule_mode,
        budget=round_budget, algorithm="decomp-min",
    )
    engine = TraversalEngine(
        state,
        direction=AlwaysPush(),
        tiebreak=MinTiebreak(),
    )
    engine.run()
    return state.finish()
