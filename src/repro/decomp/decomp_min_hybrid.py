"""Decomp-Min-Hybrid: writeMin tie-breaking + direction-optimizing rounds.

The fourth corner of the paper's design square, reachable only once
the traversal engine made tie-break and direction independent axes:

====================  ==============  ===================
variant               tie-break       direction
====================  ==============  ===================
Decomp-Min            min (writeMin)  always push
Decomp-Arb            arb (CAS)       always push
Decomp-Arb-Hybrid     arb (CAS)       fraction hybrid
**Decomp-Min-Hybrid** min (writeMin)  fraction hybrid
====================  ==============  ===================

Sparse rounds run Algorithm 2's two writeMin phases; rounds whose
claimed frontier exceeds the 20 % threshold run the read-based sweep
instead, with the inspected edges deferred to filterEdges.  The mix is
coherent because a read-based round is tie-break independent: every
unvisited vertex adopts exactly one neighbor's component (the first in
adjacency order), so no concurrent-write conflict exists for the
writeMin rule to resolve — whichever rule the sparse rounds use, the
dense rounds are the same arbitrary-CRCW adoption.

Quality sits between its parents: dense rounds forgo the minimum-shift
guarantee on the vertices they claim, so the expected inter-edge bound
is the arbitrary rule's 2*beta*m (Theorem 2), not beta*m — the
decomposition-quality tests and ``fraction_bound`` account it that
way.  What it buys over Decomp-Min is the hybrid's streaming dense
rounds on low-diameter inputs while keeping writeMin's tighter
*observed* quality on the sparse rounds (Table 2's new row).

Correctness of the shared pair array across mixed rounds: phase 1 only
writeMins onto still-unvisited targets and phase 2 only reads the
pairs of those same targets, so a vertex claimed by a dense round is
excluded from every later writeMin round by ``C[w] != UNVISITED`` —
its stale pair cell is never read again.
"""

from __future__ import annotations

from repro.decomp.base import Decomposition, run_decomposition
from repro.engine.direction import DENSE_THRESHOLD, FractionHybrid
from repro.engine.tiebreak import MinTiebreak
from repro.graphs.csr import CSRGraph

__all__ = ["decomp_min_hybrid"]


def decomp_min_hybrid(
    graph: CSRGraph,
    beta: float,
    seed: int = 1,
    schedule_mode: str = "permutation",
    dense_threshold: float = DENSE_THRESHOLD,
    round_budget=None,
) -> Decomposition:
    """Run Decomp-Min-Hybrid on *graph*.

    Algorithm 2's writeMin rule on sparse rounds, the read-based sweep
    on dense ones.  Expected inter-component edges <= 2*beta*m (the
    dense rounds adopt arbitrarily), partition diameter
    O(log n / beta) w.h.p.; O(m) expected work.

    Parameters
    ----------
    dense_threshold:
        A round runs read-based when its claimed frontier exceeds this
        fraction of all n vertices and some vertex is still unvisited
        (paper: 0.20).
    round_budget:
        Optional :class:`~repro.resilience.policy.RoundBudget` override.
    """
    return run_decomposition(
        graph,
        beta,
        seed,
        schedule_mode,
        round_budget,
        "decomp-min-hybrid",
        direction=FractionHybrid(threshold=dense_threshold),
        tiebreak=MinTiebreak(),
    )
