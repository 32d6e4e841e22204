"""Fault injection and round budgets: faults are detected, never hidden.

* :mod:`repro.resilience.faults` — deterministic mid-run fault
  injection (CAS flips, dropped frontier entries, shift perturbation,
  label corruption), armed by ``repro run --inject-fault``, the fuzz
  oracle and the fault-matrix tests;
* :mod:`repro.resilience.policy` — :class:`RoundBudget`, which turns a
  runaway loop into a structured :class:`~repro.errors.ConvergenceError`.

A corrupted run is caught by verification, the sanitizer or a round
budget and surfaces as a :class:`~repro.errors.ReproError`; the CLI
reports it as a one-line ``error:`` with exit code 2.  Nothing retries
the run or substitutes another algorithm's result.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
)
from repro.resilience.policy import (
    DECOMP_ROUND_FACTOR,
    DECOMP_ROUND_SLACK,
    RoundBudget,
)

__all__ = [
    "DECOMP_ROUND_FACTOR",
    "DECOMP_ROUND_SLACK",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "RoundBudget",
    "parse_fault_plan",
]
