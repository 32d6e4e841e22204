"""Direction-optimizing (hybrid) BFS [Beamer-Asanovic-Patterson 2012].

When the frontier is large, it is cheaper to run the level *backwards*:
every unvisited vertex scans its incoming neighbors and adopts the
first one found on the frontier as its parent, then stops ("early
exit").  On dense low-diameter graphs this skips the vast majority of
edge traversals — the effect behind hybrid-BFS-CC's and multistep-CC's
dominance on the paper's rMat2 and com-Orkut inputs.

The cost model honours the early exit: the bottom-up sweep charges only
the edges examined *up to and including* each vertex's first
frontier-neighbor hit (or its full adjacency list when there is none),
and it charges them as streaming reads (``scan``) rather than atomics —
the read-based sweep needs no CAS, which is the second reason the
paper's hybrid variants win on dense frontiers.

Our graphs are symmetric, so in-neighbors == out-neighbors and one CSR
serves both directions (as in the paper's storage scheme).

As an engine configuration:
:class:`~repro.engine.state.BFSTreeState` (with the visited bitmap the
pull kernel needs) under the paper's
:class:`~repro.engine.direction.FractionHybrid` rule — or pinned
:class:`~repro.engine.direction.AlwaysPush` /
:class:`~repro.engine.direction.AlwaysPull` when a direction is forced.
The read-based sweep itself is
:func:`repro.engine.kernels.bottom_up_step`, the same sweep the
decomposition hybrids' dense rounds run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bfs.parallel_bfs import BFSResult
from repro.engine.core import TraversalEngine
from repro.engine.direction import (
    DENSE_THRESHOLD,
    AlwaysPull,
    AlwaysPush,
    DirectionPolicy,
    FractionHybrid,
)
from repro.engine.state import BFSTreeState
from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph

__all__ = ["hybrid_bfs", "HybridBFSResult"]


@dataclass(eq=False)
class HybridBFSResult(BFSResult):
    """BFS result plus the per-round direction decisions (for tests/benches)."""

    directions: List[str] = field(default_factory=list)


def hybrid_bfs(
    graph: CSRGraph,
    source: int,
    dense_threshold: float = DENSE_THRESHOLD,
    force_direction: Optional[str] = None,
    round_budget=None,
) -> HybridBFSResult:
    """Direction-optimizing BFS from *source*.

    Parameters
    ----------
    dense_threshold:
        Switch to the bottom-up sweep when the claimed frontier exceeds
        this fraction of all n vertices and some vertex is still
        unvisited (paper: 20 %).  NaN or a negative value raises
        :class:`~repro.errors.ParameterError`; above 1 never pulls.
    force_direction:
        ``"top-down"`` or ``"bottom-up"`` pins every round to one
        direction (ablation support); default adaptive.  Any other
        value raises :class:`~repro.errors.ParameterError`.
    round_budget:
        Optional :class:`~repro.resilience.policy.RoundBudget` bounding
        the rounds.
    """
    if force_direction not in (None, "top-down", "bottom-up"):
        raise ParameterError(f"bad force_direction {force_direction!r}")
    direction: DirectionPolicy
    if force_direction == "top-down":
        direction = AlwaysPush()
    elif force_direction == "bottom-up":
        direction = AlwaysPull()
    else:
        direction = FractionHybrid(threshold=dense_threshold)
    state = BFSTreeState(
        graph, source, track_visited=True, budget=round_budget
    )
    TraversalEngine(state, direction=direction).run()
    return HybridBFSResult(
        parents=state.parents,
        distances=state.distances,
        num_rounds=state.round,
        num_visited=state.num_visited,
        directions=state.directions,
    )
