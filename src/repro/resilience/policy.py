"""Retry and round-budget policies for the resilient experiment stack.

Two small, deterministic policy objects:

* :class:`RetryPolicy` — how a failed (algorithm x graph) cell is
  re-attempted: a bounded number of attempts, *seed rotation* so a
  pathological random schedule is not replayed verbatim, and an
  exponential backoff charged in **simulated cost units** (this package
  executes on a simulated machine, so the penalty for retrying shows up
  where everything else does: in the work/depth profile, not in
  ``time.sleep``).
* :class:`RoundBudget` — an explicit bound on an iterative algorithm's
  rounds.  Fixed-point loops check it each round and convert a runaway
  loop into a structured :class:`~repro.errors.ConvergenceError`
  carrying ``(algorithm, rounds_used, budget)`` — the signal the
  :class:`~repro.resilience.runner.ResilientRunner` retries on.

The decomposition default budget is ``DECOMP_ROUND_FACTOR *
(log2(n) + 1) / beta + DECOMP_ROUND_SLACK`` rounds — a generous
multiple of the paper's O(log n / beta) w.h.p. round bound (see
``docs/cost_model.md``), so it never trips on healthy runs yet turns a
non-terminating loop (a bug, or an injected scheduling fault) into a
diagnosable error within a bounded factor of the honest running time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConvergenceError, ParameterError

__all__ = [
    "RetryPolicy",
    "RoundBudget",
    "DECOMP_ROUND_FACTOR",
    "DECOMP_ROUND_SLACK",
    "DEFAULT_SEED_STRIDE",
]

#: Multiplier over the theoretical O(log n / beta) decomposition round
#: bound.  The expected max shift is ~ln(n)/beta and BFS extends past it
#: by the max partition radius (same order), so honest runs stay well
#: under 8x the bound.
DECOMP_ROUND_FACTOR = 8

#: Additive slack so tiny graphs (where log2(n) ~ 1) keep headroom.
DECOMP_ROUND_SLACK = 32

#: Default seed-rotation stride: a prime far from the generators' own
#: stream constants, so per-attempt streams never collide with the
#: per-level streams ``decomp_cc`` derives (``LEVEL_SEED_STRIDE * level``).
DEFAULT_SEED_STRIDE = 7919


@dataclass(frozen=True)
class RetryPolicy:
    """How one failed cell is re-attempted.

    Attributes
    ----------
    max_attempts:
        Total attempts per algorithm (first try included); must be >= 1.
    backoff_base:
        Simulated cost units (charged as sequential work to the winning
        profile's tracker) for the first retry.
    backoff_factor:
        Multiplier per further retry (exponential backoff).
    seed_stride:
        Added to the base seed once per attempt — attempt ``a`` runs
        with ``seed + a * seed_stride``, so a seed that tickles a
        pathological schedule is rotated away instead of replayed.
    """

    max_attempts: int = 3
    backoff_base: float = 1024.0
    backoff_factor: float = 2.0
    seed_stride: int = DEFAULT_SEED_STRIDE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ParameterError(
                "backoff_base must be >= 0 and backoff_factor >= 1, got "
                f"{self.backoff_base}, {self.backoff_factor}"
            )

    def attempts(self) -> Iterator[int]:
        """Attempt indices ``0 .. max_attempts-1``."""
        return iter(range(self.max_attempts))

    def seed_for(self, base_seed: int, attempt: int) -> int:
        """The rotated seed for *attempt* (attempt 0 keeps the base seed)."""
        return base_seed + attempt * self.seed_stride

    def backoff_cost(self, attempt: int) -> float:
        """Simulated-cost penalty charged before *attempt* (0 for the first)."""
        if attempt <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class RoundBudget:
    """An explicit round bound for one iterative algorithm run.

    Loops call :meth:`check` once per round; exceeding the budget
    raises a structured :class:`~repro.errors.ConvergenceError`.
    """

    max_rounds: int
    algorithm: str = "?"

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ParameterError(f"max_rounds must be >= 1, got {self.max_rounds}")

    @classmethod
    def for_decomposition(
        cls, n: int, beta: float, algorithm: str = "decomp"
    ) -> "RoundBudget":
        """The default DECOMP budget: generous over O(log n / beta)."""
        bound = DECOMP_ROUND_FACTOR * (math.log2(n + 2) + 1.0) / max(beta, 1e-9)
        return cls(
            max_rounds=int(math.ceil(bound)) + DECOMP_ROUND_SLACK,
            algorithm=algorithm,
        )

    def check(self, rounds_used: int) -> None:
        """Raise :class:`ConvergenceError` if *rounds_used* exceeds the budget."""
        if rounds_used > self.max_rounds:
            raise ConvergenceError(
                algorithm=self.algorithm,
                rounds_used=rounds_used,
                budget=self.max_rounds,
            )

    def remaining(self, rounds_used: int) -> int:
        """Rounds left before :meth:`check` trips (clamped at 0)."""
        return max(0, self.max_rounds - rounds_used)
