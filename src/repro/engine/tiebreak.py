"""Tie-break policies: who wins when BFS frontiers collide.

When several frontiers reach the same unvisited vertex in one
level-synchronous round, some rule must pick the single winner.  The
paper's two rules are the engine's two built-in policies:

* :class:`ArbTiebreak` — Algorithm 3's arbitrary tie-breaking: a bare
  CAS race, resolved in one pass (``first_winner`` is one legal
  arbitrary-CRCW schedule).  Decomposition quality bound: 2*beta*m
  expected inter-edges (Theorem 2).
* :class:`MinTiebreak` — Algorithm 2's faithful Miller-Peng-Xu rule:
  the center with the minimum fractional shift delta' wins, via an
  atomic writeMin over encoded (delta', center) pairs, requiring two
  synchronized phases per round.  Bound: beta*m.

A policy owns whatever per-run auxiliary state its rule needs (the
writeMin pair array for ``min``) and runs the push-round kernel under
the right phase labels.  Read-based (pull) rounds are tie-break
independent — every concurrent writer would write the same component
adoption, so the pull kernel never consults the policy.

A custom rule is a plain :class:`TiebreakPolicy` subclass passed to
the engine as an instance; see ``docs/api.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.kernels import _PAIR_INF, arb_round, min_round
from repro.engine.workspace import Workspace
from repro.primitives.atomics import check_pair_domain

if TYPE_CHECKING:
    from repro.decomp.base import DecompState
    from repro.engine.core import TraversalEngine

__all__ = [
    "TiebreakPolicy",
    "ArbTiebreak",
    "MinTiebreak",
]


class TiebreakPolicy:
    """How concurrent claims on one unvisited vertex are resolved.

    Subclasses implement :meth:`push_round` (one write-based round over
    the state's frontier, returning the next frontier) and may override
    :meth:`setup` to allocate per-run auxiliary state.  One policy
    instance serves exactly one engine run.
    """

    def setup(self, state: "DecompState") -> None:
        """Allocate per-run auxiliary state (charged to ``init``)."""

    def push_round(
        self, state: "DecompState", engine: "TraversalEngine"
    ) -> np.ndarray:
        """Run one write-based round; return the next frontier."""
        raise NotImplementedError


class ArbTiebreak(TiebreakPolicy):
    """Arbitrary tie-breaking (Algorithm 3): a bare CAS race.

    One pass over the frontier's edges per round and one machine word
    of state per vertex — the paper's key engineering contribution.
    """

    def push_round(
        self, state: "DecompState", engine: "TraversalEngine"
    ) -> np.ndarray:
        label = engine.direction.sparse_phase or "bfsMain"
        with state.tracker.phase(label):
            return arb_round(state)


class MinTiebreak(TiebreakPolicy):
    """writeMin tie-breaking (Algorithm 2): minimum delta' wins.

    Owns the per-vertex merged (delta', center) writeMin cell and runs
    the two synchronized phases (``bfsPhase1`` / ``bfsPhase2``) the
    rule requires — the cost Decomp-Arb removes.
    """

    def __init__(self) -> None:
        self.pair: np.ndarray = np.zeros(0, dtype=np.int64)
        self._checked = False

    def setup(self, state: "DecompState") -> None:
        tracker = state.tracker
        with tracker.phase("init"):
            self.pair = np.full(state.n, _PAIR_INF, dtype=np.int64)
            tracker.add("alloc", work=float(state.n), depth=1.0)
        if isinstance(state.workspace, Workspace):
            # Prove the whole (delta', center) domain encodable once, so
            # the per-round encode_pair range scans can be skipped (the
            # per-round keys are gathers out of exactly this domain).
            check_pair_domain(state.schedule.frac, state.n)
            self._checked = True

    def push_round(
        self, state: "DecompState", engine: "TraversalEngine"
    ) -> np.ndarray:
        # Phase labels are the rule's own (bfsPhase1/bfsPhase2, inside
        # the kernel); the direction policy's sparse label is unused.
        return min_round(state, self.pair, trusted_keys=self._checked)
