"""The engine state of the BFS family.

:class:`ComponentLabelState` writes one component label over
everything reachable from a source into a shared labels array.  It is
the per-component building block of hybrid-BFS-CC and multistep-CC,
the paper's BFS baselines.  (The decomposition family's state is
:class:`~repro.decomp.base.DecompState`, which lives with the
decomposition machinery it owns.)

Like that state, it resolves the active context once, when it is
built: ``tracker``, ``plan`` (the armed fault plan), ``sanitizer`` and
``workspace``.  Its rounds, and the direction policies, read those
attributes, so a round performs no context-var reads.

Cost-parity note: it charges exactly what the pre-engine loops
charged — no ``bfsPre`` seeding phase, no phase labels at all
(profiles stay "unphased") and unit end-of-round barriers (see
:func:`~repro.engine.core.end_round`).

Fault hooks: the round-boundary hooks of an armed
:class:`~repro.resilience.faults.FaultPlan` (``drop_frontier``,
``shift_perturb``, ``label_corrupt``) fire only from the decomposition
family's round boundary.  This state's ``begin_round`` only installs
the next frontier and never sets the plan's round index.  ``cas_flip``
does reach it: each push round passes ``plan`` to
:func:`~repro.primitives.atomics.first_winner`, so a flip spec without
a round restriction picks another legal winner there.  A pull round
races nothing, so no flip applies to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.core import UNVISITED, TraversalEngine, TraversalState, end_round
from repro.engine.kernels import bottom_up_step
from repro.errors import ParameterError
from repro.primitives.atomics import first_winner
from repro.primitives.pack import pack_index
from repro.runtime.context import current_context

if TYPE_CHECKING:
    from repro.graphs.csr import CSRGraph

__all__ = ["ComponentLabelState"]


class ComponentLabelState(TraversalState):
    """Label one component into a shared labels array.

    The hybrid-BFS-CC building block: *labels* is shared across all the
    per-component runs (per-component allocation would inflate the cost
    profile), entries must be ``UNVISITED`` where not yet reached, and
    every vertex this traversal claims gets *label*.  An out-of-range
    *source* raises :class:`~repro.errors.ParameterError` before
    *labels* is touched.
    """

    def __init__(
        self,
        graph: "CSRGraph",
        source: int,
        labels: np.ndarray,
        label: int,
    ) -> None:
        if not 0 <= source < graph.num_vertices:
            raise ParameterError(
                f"source {source} out of range [0, {graph.num_vertices})"
            )
        self.graph = graph
        self.source = source
        self.labels = labels
        self.label = np.int64(label)
        ctx = current_context()
        self.tracker = ctx.tracker
        self.plan = ctx.fault_plan
        self.sanitizer = ctx.sanitizer
        self.workspace = ctx.backend.workspace
        # Seeding write: one cell, before the engine's first round window.
        labels[source] = self.label
        self.count = 1
        self._frontier = np.zeros(0, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    @property
    def visited_count(self) -> int:
        # Component-local: how many vertices this run has labeled.
        return self.count

    @property
    def done(self) -> bool:
        return self._frontier.size == 0

    @property
    def frontier(self) -> np.ndarray:
        return self._frontier

    def initial_frontier(self) -> np.ndarray:
        return np.array([self.source], dtype=np.int64)

    def shared_arrays(self) -> "dict[str, np.ndarray]":
        return {"labels": self.labels}

    def begin_round(self, engine: TraversalEngine, next_frontier: np.ndarray) -> None:
        self._frontier = next_frontier

    def _claim(self, winners: np.ndarray) -> None:
        # Winner scatter: first_winner's or the pull sweep's winners,
        # distinct by construction and sanctioned or declared.
        self.labels[winners] = self.label
        self.tracker.add("scatter", work=float(winners.size), depth=1.0)
        self.count += int(winners.size)

    def push_round(self, engine: TraversalEngine) -> np.ndarray:
        tracker, ws = self.tracker, self.workspace
        # Only the targets matter: a claim writes the one shared label.
        _counts, dst = self.graph.expand_targets(
            self._frontier, workspace=ws, tracker=tracker
        )
        fresh = ws.take(self.labels, dst) == UNVISITED
        tracker.add("gather", work=float(dst.size), depth=1.0)
        _pos, winners = first_winner(
            ws.compress(fresh, dst),
            workspace=ws,
            tracker=tracker,
            plan=self.plan,
            sanitizer=self.sanitizer,
        )
        self._claim(winners)
        end_round(packing="unit", tracker=tracker)
        return winners

    def pull_round(self, engine: TraversalEngine) -> np.ndarray:
        tracker = self.tracker
        n = self.n
        # The visited test over all n vertices, then its pack.
        tracker.add("scan", work=float(n), depth=1.0)
        unvisited = pack_index(self.labels == UNVISITED)
        # The frontier byte array is preallocated and reused in a
        # Ligra-style implementation, so (as in the seed) building it
        # is not charged as a scatter here.
        bitmap = np.zeros(n, dtype=bool)
        bitmap[self._frontier] = True
        winners, _parents, _examined = bottom_up_step(
            self.graph, bitmap, unvisited, self.workspace, tracker=tracker
        )
        if self.sanitizer is not None:
            # One writer per swept vertex, and no race to sanction the
            # stores: declare them.
            self.sanitizer.record_write(self.labels, winners)
        self._claim(winners)
        end_round(packing="unit", tracker=tracker)
        return winners
