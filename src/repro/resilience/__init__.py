"""Resilience layer: retry policies, checkpoints, fault injection.

The machinery that turns the experiment stack from
crash-loses-everything into a production-shaped pipeline:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy` (seed-rotating
  retries with simulated-cost backoff) and :class:`RoundBudget`
  (structured :class:`~repro.errors.ConvergenceError` on runaway loops);
* :mod:`repro.resilience.checkpoint` — atomic, versioned sweep
  checkpoints for kill-and-resume grid runs;
* :mod:`repro.resilience.faults` — deterministic mid-run fault
  injection (CAS flips, dropped frontier entries, shift perturbation,
  label corruption);
* :mod:`repro.resilience.runner` — :class:`ResilientRunner`, wiring
  retry + verification gating + graceful degradation + checkpointing
  around :func:`repro.experiments.harness.profile_run`.

``runner`` is re-exported lazily: the low-level modules here are
imported by the primitives/decomp layers (fault hooks, round budgets),
while the runner sits *above* the experiments layer — eager import
would be circular.
"""

from repro.resilience.checkpoint import CHECKPOINT_VERSION, SweepCheckpoint, cell_key
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
)
from repro.resilience.policy import (
    DECOMP_ROUND_FACTOR,
    DECOMP_ROUND_SLACK,
    RetryPolicy,
    RoundBudget,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CellOutcome",
    "DECOMP_ROUND_FACTOR",
    "DECOMP_ROUND_SLACK",
    "FAULT_KINDS",
    "FailureRecord",
    "FaultPlan",
    "FaultSpec",
    "ResilientRunner",
    "RetryPolicy",
    "RoundBudget",
    "SweepCheckpoint",
    "cell_key",
    "parse_fault_plan",
]

_LAZY = {"ResilientRunner", "CellOutcome", "FailureRecord"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.resilience import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
