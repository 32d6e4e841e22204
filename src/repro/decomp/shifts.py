"""BFS start-time schedules for the Miller-Peng-Xu decomposition.

DECOMP assigns every vertex a shift ``delta_v ~ Exponential(beta)`` and
starts a BFS from each still-unvisited vertex once its start time
arrives; vertex w ends up in the partition of the center u minimizing
the shifted distance ``dist(u, v) - delta_u``.  Operationally (and in
the paper's iteration-indexed description) the BFS of the *largest*
shift starts first and the number of new centers per round grows
geometrically — after t rounds roughly ``e^{beta * t}`` centers are
active, and all n vertices have started within O(log n / beta) rounds
w.h.p.

The paper's §4 simulates the draws with a random permutation: "in each
round adding chunks of vertices starting from the beginning of the
permutation as start centers for new BFS's, where the chunk size grows
exponentially".  This module provides that simulation
(:class:`ShiftSchedule` mode ``"permutation"``) and, as an extension,
the exact-draw schedule (mode ``"exponential"``) that sorts true
exponential variates — the two agree in distribution, which the test
suite checks statistically.

Both modes also draw the per-vertex random integers ``delta'_v`` that
Decomp-Min uses to break same-round ties ("each vertex also draws a
random integer from a large enough range to simulate the fractional
part of its shift value").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Optional

import numpy as np

from repro.errors import ParameterError
from repro.primitives.rand import (
    _hash_stream,
    exponential_shifts,
    random_permutation,
)
from repro.primitives.sort import radix_argsort
from repro.runtime.context import FROM_CONTEXT, current_context

if TYPE_CHECKING:
    from repro.resilience.faults import FaultPlan

__all__ = ["ShiftSchedule", "FRAC_BITS"]

#: Width of the tie-break integers delta'. 30 bits keeps the encoded
#: (priority, payload) pair within the atomics module's 31-bit halves.
FRAC_BITS = 30

ScheduleMode = Literal["permutation", "exponential"]


@dataclass
class ShiftSchedule:
    """Start-time schedule for one DECOMP call.

    Attributes
    ----------
    order:
        All n vertices, in start order: ``order[:cumulative(t)]`` are
        the center *candidates* whose start time has arrived by round t
        (candidates already visited by an earlier BFS do not start).
    frac:
        Per-vertex tie-break integers in ``[0, 2^FRAC_BITS)`` — the
        delta' values; smaller wins a Decomp-Min writeMin race.  The
        draw is charged at construction but computed on first read:
        Decomp-Arb never reads it.  Assigning it replaces the draw.
    """

    n: int
    beta: float
    seed: int
    mode: ScheduleMode = "permutation"
    order: np.ndarray = field(init=False)
    _frac: Optional[np.ndarray] = field(init=False, default=None, repr=False)
    _cum_by_round: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError(f"n must be >= 0, got {self.n}")
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"beta must be in (0,1), got {self.beta}")
        if self.mode not in ("permutation", "exponential"):
            raise ParameterError(f"unknown schedule mode {self.mode!r}")
        tracker = current_context().tracker
        n = self.n
        # The charge of the hash_randoms draw behind ``frac``.
        tracker.add("scan", work=float(n), depth=1.0)
        if n == 0:
            self.order = np.zeros(0, dtype=np.int64)
            self._cum_by_round = np.zeros(1, dtype=np.int64)
            return
        if self.mode == "permutation":
            # The paper's simulation: a random permutation supplies the
            # start *order*; chunk sizes follow the exponential
            # order-statistics distribution (growing geometrically with
            # ratio ~e^beta in expectation).  Sampling the sizes from
            # actual draws — rather than using their deterministic
            # expectations — matters for termination of CC at large
            # beta: with fixed chunk sizes a tiny contracted graph can
            # deterministically start *all* its vertices in round 0
            # every iteration and never shrink, whereas sampled sizes
            # escape that fixpoint with constant probability per
            # iteration (and CC reseeds each iteration).
            # stream=13 decorrelates the start order from any other
            # permutation drawn with the same seed (notably a
            # generator's label shuffle, which would otherwise make the
            # first BFS center the relabeled original vertex 0).
            self.order = random_permutation(n, self.seed, stream=13)
            delta = exponential_shifts(n, self.beta, self.seed + 0x9E37)
            start = np.floor(float(delta.max()) - delta).astype(np.int64)
            counts = np.bincount(start)
            self._cum_by_round = np.cumsum(counts).astype(np.int64)
            tracker.add("scan", work=float(n), depth=1.0)
        else:
            # Exact draws: start time of v is (delta_max - delta_v);
            # order vertices by decreasing delta (increasing start time).
            delta = exponential_shifts(n, self.beta, self.seed)
            delta_max = float(delta.max())
            start = delta_max - delta
            # Radix sort on quantized start times (stable, linear work).
            quantized = np.minimum(
                (start * (1 << 16)).astype(np.int64), np.int64(2**62)
            )
            self.order = radix_argsort(quantized)
            starts_sorted = start[self.order]
            max_rounds = int(np.ceil(delta_max)) + 2
            t = np.arange(max_rounds, dtype=np.float64)
            self._cum_by_round = np.searchsorted(
                starts_sorted, t + 1.0, side="left"
            ).astype(np.int64)
            # The true fractional part refines the hash-based tie-break
            # in exact mode (Decomp-Min's priority rule).
            frac_float = start - np.floor(start)
            self._frac = (frac_float * (1 << FRAC_BITS)).astype(np.int64)
            tracker.add("scan", work=float(n), depth=1.0)

    @property
    def frac(self) -> np.ndarray:
        if self._frac is None:
            bits = _hash_stream(self.n, self.seed, stream=11)
            bits >>= np.uint64(64 - FRAC_BITS)
            self._frac = bits.view(np.int64)
        return self._frac

    @frac.setter
    def frac(self, value: np.ndarray) -> None:
        self._frac = value

    # -- queries -------------------------------------------------------------

    @property
    def max_rounds(self) -> int:
        """Upper bound on rounds before every vertex is a candidate."""
        return int(self._cum_by_round.size)

    def cumulative(
        self, round_index: int, plan: "Optional[FaultPlan]" = FROM_CONTEXT
    ) -> int:
        """Number of candidate centers whose start time is < round+1.

        An armed :class:`~repro.resilience.faults.FaultPlan` with a
        ``shift_perturb`` spec may withhold part of an early round's
        quota — simulating perturbed exponential draws.  The plan only
        perturbs a bounded prefix of rounds, so every vertex is still
        released eventually (the schedule stays a schedule).  *plan*
        defaults to the active context's; the round boundary passes the
        one its state resolved.
        """
        if round_index < 0:
            raise ParameterError(f"round_index must be >= 0, got {round_index}")
        idx = min(round_index, self._cum_by_round.size - 1)
        cum = int(self._cum_by_round[idx])
        if plan is FROM_CONTEXT:
            plan = current_context().fault_plan
        if plan is not None:
            cum = plan.perturb_cumulative(round_index, cum, self.n)
        return cum

    def new_candidates(self, round_index: int, already: int) -> np.ndarray:
        """Candidates whose start time arrives at *round_index*.

        *already* is the count previously consumed (the caller tracks
        it, mirroring the single shared frontier array of the paper's
        implementation, to which "new BFS centers are simply added to
        the end ... in parallel").
        """
        cum = self.cumulative(round_index)
        return self.order[already:cum]
