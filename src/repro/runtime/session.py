"""One profiled run: the choreography every runtime client shares.

The CLI, the experiment harness, the fuzz oracle and the benchmarks all
run an algorithm the same way — pick a backend, build a tracker, maybe
arm a sanitizer or a fault plan, time the run, verify the labeling.
:func:`execute_profiled` is that choreography written once: it derives
one :class:`~repro.runtime.context.ExecutionContext` child carrying
*all* of the run's ambient state and activates it around exactly one
algorithm execution.  A labeling that fails verification raises a
:class:`~repro.errors.VerificationError` naming the algorithm and the
graph, so a wrong cell of a sweep names itself.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Union

from repro.analysis.verify import verify_labeling
from repro.engine.backend import ExecutionBackend, resolve_backend
from repro.errors import VerificationError
from repro.experiments.harness import RunProfile
from repro.experiments.registry import get_algorithm
from repro.graphs.csr import CSRGraph
from repro.pram.cost import CostTracker
from repro.pram.sanitizer import PramSanitizer
from repro.resilience.faults import FaultPlan
from repro.runtime.context import current_context

__all__ = ["execute_profiled"]


def execute_profiled(
    algorithm: str,
    graph: CSRGraph,
    *,
    graph_name: str = "?",
    verify: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    backend: Union[str, ExecutionBackend, None] = None,
    sanitize: bool = False,
    halt_on_race: bool = True,
    tracker: Optional[CostTracker] = None,
    **algorithm_kwargs: object,
) -> RunProfile:
    """Run *algorithm* once inside one derived execution context.

    The single entry point every runtime client goes through: builds a
    child of the current context carrying a fresh tracker (or the given
    one), the resolved *backend* and an optional sanitizer, activates
    it for exactly one algorithm execution, and returns the
    :class:`RunProfile`.  A *fault_plan* is armed inside the context
    (one call = one run against its sabotage budget).  Verification
    happens outside the context so its costs never pollute the run's
    profile; a failed check re-raises as a :class:`VerificationError`
    prefixed ``"{algorithm} on {graph_name}: "`` that keeps its
    ``reason``.
    """
    spec = get_algorithm(algorithm)
    overrides: Dict[str, object] = {
        "tracker": tracker if tracker is not None else CostTracker()
    }
    if backend is not None:
        overrides["backend"] = resolve_backend(backend)
    if sanitize:
        overrides["sanitizer"] = PramSanitizer(halt_on_race=halt_on_race)
    ctx = current_context().child(**overrides)
    tracer = ctx.tracer
    span = tracer.span("run", "run") if tracer.enabled else None
    if span is not None:
        span.set(
            algorithm=algorithm,
            graph=graph_name,
            backend=ctx.backend.name,
            faulted=fault_plan is not None,
        )
        # Phase windows recorded by the tracker flow to the tracer as
        # B/E events for the duration of this run; the previous
        # observer (normally None) is restored in the finally below so
        # a caller-supplied tracker is handed back unchanged.
        prev_observer = ctx.tracker.observer
        ctx.tracker.observer = tracer
    ctx.metrics.incr("runtime.runs")
    t0 = time.perf_counter()
    try:
        with ctx.activate():
            if fault_plan is not None:
                with fault_plan.activate():
                    result = spec.run(graph, **algorithm_kwargs)
            else:
                result = spec.run(graph, **algorithm_kwargs)
    finally:
        if span is not None:
            ctx.tracker.observer = prev_observer
            span.set(
                work=ctx.tracker.total_work(),
                depth=ctx.tracker.total_depth(),
            )
            span.close()
    wall = time.perf_counter() - t0
    if verify:
        try:
            verify_labeling(graph, result.labels)
        except VerificationError as exc:
            raise VerificationError(
                f"{algorithm} on {graph_name}: {exc}", reason=exc.reason
            ) from exc
    return RunProfile(
        algorithm=algorithm,
        graph_name=graph_name,
        result=result,
        tracker=ctx.tracker,
        wall_seconds=wall,
    )
