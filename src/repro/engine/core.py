"""The unified level-synchronous traversal engine.

Every BFS-shaped algorithm in the repository — the three paper
decomposition variants, their new Decomp-Min-Hybrid combination, and
the per-component BFS of hybrid-BFS-CC and multistep-CC — is one
*round loop* around three pluggable pieces:

* a :class:`TraversalState` — the per-run mutable state (who is
  visited, what the frontier is, what a claim writes) plus the round
  kernels that expand it;
* a :class:`~repro.engine.tiebreak.TiebreakPolicy` — how concurrent
  claims on the same unvisited vertex are resolved (``arb`` = bare CAS
  race, ``min`` = writeMin over (delta', center) pairs);
* a :class:`~repro.engine.direction.DirectionPolicy` — whether a round
  runs write-based (push) or read-based (pull), per Beamer's
  direction-optimizing rule.

:class:`TraversalEngine` owns the loop itself: the round boundary
(where the :class:`~repro.resilience.policy.RoundBudget` check and the
:class:`~repro.resilience.faults.FaultPlan` hooks fire, via the
state's ``begin_round``), the push/pull dispatch, and the end-of-round
barrier accounting (:func:`end_round` — the single authoritative place
that charges frontier/edge-packing depth, so the per-phase breakdowns
of Figures 5-7 are mutually comparable).

The engine exists so that a *variant* is nothing but a policy table
(see ``docs/algorithms.md``): the level-synchronous loop is written
once, here, and nowhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ParameterError
from repro.pram.cost import CostTracker, log_depth
from repro.runtime.context import current_context

if TYPE_CHECKING:  # policies import the engine's types, not vice versa
    from repro.engine.direction import DirectionPolicy
    from repro.engine.tiebreak import TiebreakPolicy

__all__ = [
    "UNVISITED",
    "label_dtype",
    "TraversalState",
    "TraversalEngine",
    "end_round",
]

#: Sentinel for "no label / not yet visited" in every per-vertex state
#: array (the decomposition's ``C``, the BFS family's component
#: labels).  The single definition; :mod:`repro.decomp.base` re-exports.
#: A plain ``int``, so a comparison against a narrow label array stays
#: in the array's type (a NumPy scalar would promote it to int64).
UNVISITED = -1


def label_dtype(n: int) -> np.dtype:
    """The smallest signed type that holds ``UNVISITED`` and ids ``[0, n)``.

    The decomposition's component array ``C`` is kept in this type.
    ``n = 0`` gets the type of ``n = 1`` (``int8``): the unguarded
    ``np.min_scalar_type(0)`` is ``uint8``, which cannot hold ``-1``.
    """
    return np.min_scalar_type(-max(n, 1))


def end_round(
    edges: int = 0,
    *,
    packing: str = "edges",
    tracker: Optional[CostTracker] = None,
) -> None:
    """Charge the end-of-round barrier — the engine-owned ``sync``.

    Every level-synchronous round ends with a barrier at which the
    surviving work items are compacted into the next round's input.
    Two packing regimes exist, and this function is the only place
    either is charged:

    * ``packing="edges"`` — the decomposition kernels compact the
      round's surviving/kept edge list and the next frontier with a
      parallel pack: O(log(*edges* + 1)) depth (at least one step, so
      an empty round still pays its barrier).
    * ``packing="unit"`` — the BFS kernels keep the seed cost model's
      unit barrier: the frontier pack's log-depth is already folded
      into their per-primitive depth charges.

    The barrier is charged to *tracker*, or to the active context's
    when it is ``None``.
    """
    if tracker is None:
        tracker = current_context().tracker
    if packing == "edges":
        tracker.sync(depth=log_depth(edges))
    elif packing == "unit":
        tracker.sync()
    else:
        raise ParameterError(f"unknown packing rule {packing!r}")


class TraversalState:
    """Base class for the engine's per-run mutable state.

    Concrete states (:class:`~repro.decomp.base.DecompState`,
    :class:`~repro.engine.state.ComponentLabelState`) hold the
    per-vertex arrays and implement the round kernels; the engine only
    talks to this interface.
    """

    #: Rounds executed so far (incremented by the engine).
    round: int = 0

    # The data half of the interface is annotation-only (no base-class
    # properties) so implementations are free to satisfy each name with
    # either a plain attribute or a property:
    #: Number of vertices in the traversed graph.
    n: int
    #: Vertices claimed so far (drives the fraction dense switch).
    visited_count: int
    #: True when the loop should stop (checked after ``begin_round``).
    done: bool
    #: The current frontier as a vertex-id array.
    frontier: np.ndarray
    #: The cost tracker the state resolved from the context when it was
    #: built; its rounds and the direction policies charge it.
    tracker: CostTracker

    def initial_frontier(self) -> np.ndarray:
        """Frontier fed into the first ``begin_round``."""
        raise NotImplementedError

    def shared_arrays(self) -> "dict[str, np.ndarray]":
        """The shared state an active PRAM sanitizer shadow-checks.

        Name -> array for every per-vertex array this traversal mutates
        during rounds (labels, parents, ...).  The default is empty —
        such a state simply gets no shadow coverage; the CAS-schedule
        and duplicate-write checks still apply through the atomics.
        """
        return {}

    def begin_round(self, engine: "TraversalEngine", next_frontier: np.ndarray) -> None:
        """Install *next_frontier* and run round-boundary bookkeeping.

        This is the round boundary, so resilience lives here: budget
        checks and fault-plan hooks fire from the implementations.
        """
        raise NotImplementedError

    def note_dense_round(self) -> None:
        """Called before a pull round runs (record-keeping hook)."""

    def push_round(self, engine: "TraversalEngine") -> np.ndarray:
        """One write-based round; returns the next frontier."""
        raise NotImplementedError

    def pull_round(self, engine: "TraversalEngine") -> np.ndarray:
        """One read-based round; returns the next frontier."""
        raise NotImplementedError(
            "this state has no read-based kernel; use a push-only "
            "direction policy"
        )

    def finalize(self, engine: "TraversalEngine") -> None:
        """Post-loop work (e.g. the hybrid's filterEdges pass)."""


class TraversalEngine:
    """The one level-synchronous round loop.

    Parameters
    ----------
    state:
        The per-run :class:`TraversalState`.
    direction:
        A :class:`~repro.engine.direction.DirectionPolicy` deciding
        push vs. pull each round.
    tiebreak:
        A :class:`~repro.engine.tiebreak.TiebreakPolicy` resolving
        concurrent claims; states whose push kernel delegates to it
        (the decomposition family) require one, the BFS family's state
        resolves with the arbitrary-CRCW race directly and may omit it.
    """

    def __init__(
        self,
        state: TraversalState,
        direction: "DirectionPolicy",
        tiebreak: "Optional[TiebreakPolicy]" = None,
    ) -> None:
        self.state = state
        self.direction = direction
        self.tiebreak = tiebreak

    def run(self) -> TraversalState:
        """Drive rounds until the state reports done; return the state.

        Each iteration: the round boundary (``begin_round`` — seeding,
        budget check, fault hooks), the direction decision on the
        *claimed* frontier (last round's winners, before any seeding —
        the decomposition's switch deliberately excludes fresh
        centers), then one push or pull round.
        """
        state, direction = self.state, self.direction
        if self.tiebreak is not None:
            self.tiebreak.setup(state)
        next_frontier = state.initial_frontier()
        ctx = current_context()
        sanitizer, tracer, tracker = ctx.sanitizer, ctx.tracer, ctx.tracker
        if sanitizer is not None:
            sanitizer.open_run(state.shared_arrays())
        try:
            while True:
                claimed = int(next_frontier.size)
                # Tracing is observational: the span and the tracker
                # snapshots exist only when a tracer is active, and
                # nothing below reads them back into the computation.
                span = tracer.span("round", "round") if tracer.enabled else None
                if span is not None:
                    span.set(round=state.round, frontier=claimed)
                    work0 = tracker.total_work()
                    depth0 = tracker.total_depth()
                # The round window opens before begin_round so that the
                # seeding writes — and anything a fault plan injects at
                # the round boundary — fall inside the shadow check.
                if sanitizer is not None:
                    sanitizer.open_round(state.round)
                state.begin_round(self, next_frontier)
                if state.done:
                    if sanitizer is not None:
                        sanitizer.close_round()
                    if span is not None:
                        span.set(
                            done=True,
                            work=tracker.total_work() - work0,
                            depth=tracker.total_depth() - depth0,
                        )
                        span.close()
                    break
                dense = direction.go_dense(self, state, claimed)
                if dense:
                    state.note_dense_round()
                    next_frontier = state.pull_round(self)
                else:
                    next_frontier = state.push_round(self)
                if sanitizer is not None:
                    sanitizer.close_round()
                if span is not None:
                    span.set(
                        dense=dense,
                        next_frontier=int(next_frontier.size),
                        work=tracker.total_work() - work0,
                        depth=tracker.total_depth() - depth0,
                    )
                    span.close()
                state.round += 1
            # The end-of-traversal pass (the hybrids' filterEdges) gets
            # a window of its own: it declares no write, so any store
            # it makes to a shared array is an unsanctioned write.
            if sanitizer is not None:
                sanitizer.open_round(state.round)
            state.finalize(self)
            if sanitizer is not None:
                sanitizer.close_round()
        finally:
            if sanitizer is not None:
                sanitizer.close_run()
        return state
