"""The unified level-synchronous traversal engine.

Every traversal in this reproduction — the three paper decomposition
variants, Decomp-Min-Hybrid, and the per-component BFS of hybrid-BFS-CC
and multistep-CC — is one configuration of a single round loop:

    ``TraversalEngine(state, direction=..., tiebreak=...).run()``

The engine owns the frontier lifecycle, the round counter, and the
one authoritative round boundary where
:class:`~repro.pram.cost.CostTracker` barriers are charged
(:func:`end_round`), :class:`~repro.resilience.policy.RoundBudget`
limits are checked, and :class:`~repro.resilience.faults.FaultPlan`
hooks fire.  What *varies* between algorithms is expressed as two
pluggable policies:

* :mod:`~repro.engine.tiebreak` — who wins concurrent claims
  (``arb`` = CAS race, ``min`` = writeMin over (delta', id) pairs);
* :mod:`~repro.engine.direction` — push vs. pull per round
  (always-push, the paper's 20 % fraction rule, Ligra's edge-count
  rule);

plus a :class:`TraversalState` subclass holding the algorithm's arrays
and round kernels.  Policies are plain classes passed in as instances;
see ``docs/api.md`` for writing a custom one.
"""

from repro.engine.backend import (
    BACKENDS,
    DEFAULT_BACKEND_NAME,
    ExecutionBackend,
    current_backend,
    resolve_backend,
    use_backend,
)
from repro.engine.core import (
    UNVISITED,
    TraversalEngine,
    TraversalState,
    end_round,
)
from repro.engine.direction import (
    DENSE_THRESHOLD,
    AlwaysPush,
    DirectionPolicy,
    FractionHybrid,
    LigraEdgeHybrid,
)
from repro.engine.kernels import (
    arb_round,
    dense_round,
    filter_edges,
    min_round,
)
from repro.engine.state import ComponentLabelState
from repro.engine.tiebreak import ArbTiebreak, MinTiebreak, TiebreakPolicy
from repro.engine.workspace import (
    FAST_WORKSPACE,
    NULL_WORKSPACE,
    NullWorkspace,
    Workspace,
)

__all__ = [
    "ExecutionBackend",
    "BACKENDS",
    "DEFAULT_BACKEND_NAME",
    "current_backend",
    "resolve_backend",
    "use_backend",
    "Workspace",
    "NullWorkspace",
    "NULL_WORKSPACE",
    "FAST_WORKSPACE",
    "TraversalEngine",
    "TraversalState",
    "end_round",
    "UNVISITED",
    "DENSE_THRESHOLD",
    "TiebreakPolicy",
    "ArbTiebreak",
    "MinTiebreak",
    "DirectionPolicy",
    "AlwaysPush",
    "FractionHybrid",
    "LigraEdgeHybrid",
    "ComponentLabelState",
    "arb_round",
    "min_round",
    "dense_round",
    "filter_edges",
]
