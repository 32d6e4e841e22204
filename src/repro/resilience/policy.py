"""Round budgets: runaway loops fail loudly instead of spinning.

:class:`RoundBudget` is an explicit bound on an iterative algorithm's
rounds.  Fixed-point loops check it each round and convert a runaway
loop into a structured :class:`~repro.errors.ConvergenceError`
carrying ``(algorithm, rounds_used, budget)``, which the CLI reports
as a one-line ``error:`` with exit code 2.

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

from repro.errors import ConvergenceError, ParameterError

__all__ = [
    "RoundBudget",
    "DECOMP_ROUND_FACTOR",
    "DECOMP_ROUND_SLACK",
]

#: Multiplier over the theoretical O(log n / beta) decomposition round
#: bound.  The expected max shift is ~ln(n)/beta and BFS extends past it
#: by the max partition radius (same order), so honest runs stay well
#: under 8x the bound.
DECOMP_ROUND_FACTOR = 8

#: Additive slack so tiny graphs (where log2(n) ~ 1) keep headroom.
DECOMP_ROUND_SLACK = 32


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
