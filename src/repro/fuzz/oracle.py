"""The differential oracle: decide whether one fuzz case passed.

One :func:`run_case` executes a case's algorithm under every configured
execution backend and cross-checks every result the repo knows how to
question:

* **serial reference** — the labeling must induce the same partition as
  :func:`repro.analysis.verify.ground_truth_labels` (checked through
  :func:`verify_labeling`, so a failure carries the structured reason);
* **backend differential** — every backend the case configures
  (``reference`` and ``fast``) must produce bit-identical labelings
  *and* identical (work, depth) charges (the parity contract, here enforced on
  adversarial inputs instead of the 116 golden fixtures);
* **sanitizer** — optionally, the run executes under the PRAM race
  sanitizer; a race on a clean run is a finding;
* **fault discipline** — when the case arms a
  :class:`~repro.resilience.faults.FaultPlan`, the contract flips: a
  corrupting fault must be *detected* (verifier, sanitizer or round
  budget), a benign fault must change nothing observable, and nothing
  may ever escalate past :class:`~repro.errors.ReproError` into a raw
  crash.

Failures come back as structured :class:`Finding` records; the shrinker
uses the finding *kinds* as its preservation predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.verify import ground_truth_labels, verify_labeling
from repro.engine.backend import BACKENDS
from repro.errors import (
    ConvergenceError,
    ReproError,
    SanitizerError,
    VerificationError,
)
from repro.fuzz.case import FuzzCase, build_case_graph
from repro.fuzz.planted import PlantedBug, get_planted_bug
from repro.graphs.csr import CSRGraph
from repro.resilience.faults import FaultPlan
from repro.runtime.session import execute_profiled

__all__ = ["Finding", "CaseOutcome", "run_case", "BENIGN_FAULT_KINDS"]

#: Fault kinds that are provably answer-preserving: any labeling
#: produced under them must still verify (docs/robustness.md).
BENIGN_FAULT_KINDS = frozenset({"cas_flip", "shift_perturb"})


@dataclass(frozen=True)
class Finding:
    """One oracle violation.

    ``kind`` is the machine-readable class the shrinker preserves:
    ``wrong-labeling``, ``backend-divergence``, ``cost-divergence``,
    ``race``, ``benign-fault-corruption``, ``unexpected-error``,
    ``crash`` or ``generator-crash``.
    """

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass
class CaseOutcome:
    """Everything :func:`run_case` learned about one case."""

    case: FuzzCase
    findings: List[Finding] = field(default_factory=list)
    #: True when an armed fault was caught by a detection layer (the
    #: *expected* outcome for corrupting faults).
    detected: bool = False
    #: Which layer detected it (``verifier``/``sanitizer``/``budget``).
    detected_by: Optional[str] = None
    num_components: Optional[int] = None

    @property
    def passed(self) -> bool:
        return not self.findings

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({f.kind for f in self.findings}))


def _fault_kinds(spec: str) -> frozenset:
    """The fault kinds named by a spec string (grammar in faults.py)."""
    return frozenset(
        clause.partition(":")[0].strip()
        for clause in spec.split(";")
        if clause.strip()
    )


def _algorithm_kwargs(case: FuzzCase) -> Dict[str, object]:
    if case.config.algorithm.startswith("decomp-"):
        return {"beta": case.config.beta, "seed": case.config.seed}
    return {}


def _execute(
    case: FuzzCase,
    graph: CSRGraph,
    backend: str,
    fault_plan: Optional[FaultPlan],
    bug: Optional[PlantedBug],
) -> Tuple[np.ndarray, float, float]:
    """Run the case's algorithm once; returns (labels, work, depth).

    Raises whatever the run raises — classification happens in
    :func:`run_case`.
    """
    prof = execute_profiled(
        case.config.algorithm,
        graph,
        graph_name=case.case_id or "fuzz",
        verify=False,
        fault_plan=fault_plan,
        backend=backend,
        sanitize=case.config.sanitize,
        **_algorithm_kwargs(case),
    )
    labels = np.asarray(prof.result.labels)
    if bug is not None and case.config.algorithm.startswith(bug.applies_to):
        labels = bug.corrupt(graph, labels)
    return labels, prof.tracker.total_work(), prof.tracker.total_depth()


def _check_labeling(
    outcome: CaseOutcome,
    graph: CSRGraph,
    labels: np.ndarray,
    reference: np.ndarray,
    who: str,
) -> None:
    try:
        verify_labeling(graph, labels, reference=reference)
    except VerificationError as exc:
        outcome.findings.append(
            Finding(
                "wrong-labeling",
                f"{who}: {exc} [reason={exc.reason}]",
            )
        )


def run_case(case: FuzzCase, planted: Optional[str] = None) -> CaseOutcome:
    """Execute one case against the full differential oracle.

    ``planted`` (or ``case.config.planted``) names a deliberate bug
    from :mod:`repro.fuzz.planted` applied to matching algorithms —
    the self-test hook proving the pipeline detects what it should.
    """
    from repro.runtime.context import current_context

    metrics = current_context().metrics
    metrics.incr("fuzz.cases")
    outcome = CaseOutcome(case=case)
    bug_name = planted or case.config.planted
    bug = get_planted_bug(bug_name) if bug_name else None

    try:
        graph = build_case_graph(case.graph)
    except Exception as exc:  # noqa: BLE001 - the oracle classifies everything
        outcome.findings.append(
            Finding("generator-crash", f"building the input graph: {exc!r}")
        )
        return outcome
    reference = ground_truth_labels(graph)

    if case.config.fault is not None:
        _run_fault_case(outcome, case, graph, reference, bug)
        return outcome

    runs: Dict[str, Tuple[np.ndarray, float, float]] = {}
    for backend in case.config.backends:
        if backend not in BACKENDS:
            outcome.findings.append(
                Finding("unexpected-error", f"unknown backend {backend!r}")
            )
            continue
        try:
            runs[backend] = _execute(case, graph, backend, None, bug)
        except SanitizerError as exc:
            outcome.findings.append(
                Finding("race", f"{backend}: sanitizer flagged a clean run: {exc}")
            )
        except ReproError as exc:
            outcome.findings.append(
                Finding(
                    "unexpected-error",
                    f"{backend}: {type(exc).__name__}: {exc}",
                )
            )
        except Exception as exc:  # noqa: BLE001 - raw crash IS the finding
            outcome.findings.append(
                Finding("crash", f"{backend}: {type(exc).__name__}: {exc!r}")
            )

    for backend, (labels, _, _) in runs.items():
        _check_labeling(outcome, graph, labels, reference, backend)
    if runs:
        first_backend = next(iter(runs))
        outcome.num_components = int(np.unique(runs[first_backend][0]).size)
    if len(runs) >= 2:
        names = list(runs)
        base_labels, base_work, base_depth = runs[names[0]]
        for other in names[1:]:
            metrics.incr("fuzz.comparisons")
            labels, work, depth = runs[other]
            if not np.array_equal(base_labels, labels):
                diff = int(np.count_nonzero(base_labels != labels))
                outcome.findings.append(
                    Finding(
                        "backend-divergence",
                        f"{names[0]} vs {other}: labelings differ at "
                        f"{diff} vertices",
                    )
                )
            if not (
                math.isclose(base_work, work, rel_tol=1e-9, abs_tol=1e-6)
                and math.isclose(base_depth, depth, rel_tol=1e-9, abs_tol=1e-6)
            ):
                outcome.findings.append(
                    Finding(
                        "cost-divergence",
                        f"{names[0]} charged (work={base_work}, "
                        f"depth={base_depth}) but {other} charged "
                        f"(work={work}, depth={depth})",
                    )
                )
    return outcome


def _run_fault_case(
    outcome: CaseOutcome,
    case: FuzzCase,
    graph: CSRGraph,
    reference: np.ndarray,
    bug: Optional[PlantedBug],
) -> None:
    """The fault-armed contract: corruption must be detected, benign
    schedules must change nothing, nothing may crash raw."""
    assert case.config.fault is not None
    backend = case.config.backends[0]
    kinds = _fault_kinds(case.config.fault)
    benign_only = kinds <= BENIGN_FAULT_KINDS
    try:
        plan = FaultPlan.parse(
            case.config.fault, seed=case.config.fault_seed, sabotage_runs=1
        )
    except ReproError as exc:
        outcome.findings.append(
            Finding("unexpected-error", f"fault spec rejected: {exc}")
        )
        return
    try:
        labels, _, _ = _execute(case, graph, backend, plan, bug)
    except SanitizerError:
        outcome.detected = True
        outcome.detected_by = "sanitizer"
        return
    except ConvergenceError:
        outcome.detected = True
        outcome.detected_by = "budget"
        return
    except ReproError as exc:
        outcome.findings.append(
            Finding(
                "unexpected-error",
                f"{backend} under fault {case.config.fault!r}: "
                f"{type(exc).__name__}: {exc}",
            )
        )
        return
    except Exception as exc:  # noqa: BLE001 - raw crash IS the finding
        outcome.findings.append(
            Finding(
                "crash",
                f"{backend} under fault {case.config.fault!r}: "
                f"{type(exc).__name__}: {exc!r}",
            )
        )
        return
    outcome.num_components = int(np.unique(labels).size)
    try:
        verify_labeling(graph, labels, reference=reference)
    except VerificationError as exc:
        if benign_only:
            outcome.findings.append(
                Finding(
                    "benign-fault-corruption",
                    f"answer-preserving fault {case.config.fault!r} "
                    f"corrupted the labeling: {exc} [reason={exc.reason}]",
                )
            )
        else:
            outcome.detected = True
            outcome.detected_by = "verifier"
