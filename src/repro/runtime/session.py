"""Session layer: load a graph once, run many, answer queries cheaply.

The CLI, the fuzz oracle, the resilient runner and the benchmarks all
used to re-implement the same run choreography — pick a backend, build
a tracker, maybe arm a sanitizer or a fault plan, time the run, verify
the labeling.  :func:`execute_profiled` is that choreography written
once: it derives one :class:`~repro.runtime.context.ExecutionContext`
child carrying *all* of the run's ambient state and activates it around
exactly one algorithm execution.

:class:`Session` is the service-style facade on top (the ROADMAP
north star): it owns one graph and memoizes labelings by ``(graph
fingerprint, algorithm, seed, beta)`` so repeated connectivity queries
cost one dictionary lookup.  Sessions are internally locked;
*different* Session objects in different threads are isolated by the
``contextvars`` carrier and never share trackers or memo entries.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.analysis.verify import verify_labeling
from repro.engine.backend import ExecutionBackend, resolve_backend
from repro.experiments.harness import RunProfile
from repro.experiments.registry import build_graph, get_algorithm
from repro.graphs.csr import CSRGraph
from repro.pram.cost import CostTracker
from repro.pram.sanitizer import PramSanitizer
from repro.resilience.faults import FaultPlan
from repro.runtime.context import ExecutionContext, current_context

__all__ = ["execute_profiled", "Session"]

#: The session default: the paper's headline algorithm.
DEFAULT_ALGORITHM = "decomp-arb-CC"
DEFAULT_BETA = 0.2


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
    profile.
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
        verify_labeling(graph, result.labels)
    return RunProfile(
        algorithm=algorithm,
        graph_name=graph_name,
        result=result,
        tracker=ctx.tracker,
        wall_seconds=wall,
    )


class Session:
    """One loaded graph, many runs and queries, memoized labelings.

    Parameters
    ----------
    graph:
        A :class:`CSRGraph`, or a registry graph name (built once at
        *scale*).
    algorithm / seed / beta:
        Defaults for :meth:`run`; each can be overridden per call.
    backend:
        The backend every run of this session binds to (default: the
        ambient context's backend at construction time).
    verify:
        Verify each fresh labeling before it enters the memo.
    """

    def __init__(
        self,
        graph: Union[CSRGraph, str],
        *,
        graph_name: Optional[str] = None,
        scale: str = "small",
        algorithm: str = DEFAULT_ALGORITHM,
        seed: int = 1,
        beta: float = DEFAULT_BETA,
        backend: Union[str, ExecutionBackend, None] = None,
        verify: bool = True,
    ) -> None:
        if isinstance(graph, str):
            graph_name = graph_name if graph_name is not None else graph
            graph = build_graph(graph, scale)
        self.graph = graph
        self.graph_name = graph_name if graph_name is not None else "?"
        self.algorithm = algorithm
        self.seed = seed
        self.beta = beta
        self.backend = (
            resolve_backend(backend)
            if backend is not None
            else current_context().backend
        )
        self.verify = verify
        self.hits = 0
        self.misses = 0
        self._memo: Dict[Tuple[str, str, int, float], RunProfile] = {}
        self._inflight: Dict[Tuple[str, str, int, float], threading.Event] = {}
        self._lock = threading.RLock()

    # -- running ----------------------------------------------------------

    def run(
        self,
        algorithm: Optional[str] = None,
        *,
        seed: Optional[int] = None,
        beta: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        **algorithm_kwargs: object,
    ) -> RunProfile:
        """Run (or recall) one labeling of the session's graph.

        Plain runs — no fault plan, no extra algorithm kwargs — are
        memoized by ``(graph fingerprint, algorithm, seed, beta)``;
        replacing the graph via :meth:`set_graph` changes the
        fingerprint and therefore misses naturally.

        The session lock guards only the bookkeeping (memo and
        in-flight table) — the labeling itself computes *outside* the
        lock, so concurrent callers over different keys run truly in
        parallel.  Concurrent callers on the *same* key coalesce: one
        computes, the rest wait on a per-key event and return the memo
        entry (one hit each, exactly as if they had arrived later).
        """
        algorithm = algorithm if algorithm is not None else self.algorithm
        seed = seed if seed is not None else self.seed
        beta = beta if beta is not None else self.beta
        memoizable = fault_plan is None and not algorithm_kwargs
        kwargs = dict(algorithm_kwargs)
        if algorithm.startswith("decomp-"):
            kwargs.setdefault("beta", beta)
            kwargs.setdefault("seed", seed)
        metrics = current_context().metrics
        while True:
            wait_for: Optional[threading.Event] = None
            done: Optional[threading.Event] = None
            with self._lock:
                key = (self.graph.fingerprint(), algorithm, seed, beta)
                graph, graph_name = self.graph, self.graph_name
                if memoizable:
                    cached = self._memo.get(key)
                    if cached is not None:
                        self.hits += 1
                        metrics.incr("session.memo.hit")
                        return cached
                    wait_for = self._inflight.get(key)
                    if wait_for is None:
                        done = threading.Event()
                        self._inflight[key] = done
            if wait_for is not None:
                # Someone else is computing this key; when they finish
                # (or fail), re-check the memo — on failure this caller
                # becomes the next owner and retries the computation.
                metrics.incr("session.inflight.wait")
                wait_for.wait()
                continue
            # From this point on this caller owns the in-flight entry
            # for the key: EVERY exit must clear it and set the event,
            # or concurrent waiters on the same key block forever.
            try:
                profile = execute_profiled(
                    algorithm,
                    graph,
                    graph_name=graph_name,
                    verify=self.verify,
                    fault_plan=fault_plan,
                    backend=self.backend,
                    **kwargs,
                )
                with self._lock:
                    if memoizable:
                        self._memo[key] = profile
                        self.misses += 1
                if memoizable:
                    metrics.incr("session.memo.miss")
                return profile
            finally:
                if done is not None:
                    with self._lock:
                        self._inflight.pop(key, None)
                    done.set()

    @contextlib.contextmanager
    def activate(self) -> Iterator[ExecutionContext]:
        """Activate a context bound to this session's backend and seed.

        For callers that drive algorithm code directly (the parity
        tests replaying golden captures through the session path)
        rather than through :meth:`run`.
        """
        with current_context().child(
            backend=self.backend, seed=self.seed
        ).activate() as ctx:
            yield ctx

    # -- graph management -------------------------------------------------

    def set_graph(
        self,
        graph: Union[CSRGraph, str],
        *,
        graph_name: Optional[str] = None,
        scale: str = "small",
    ) -> None:
        """Replace the session's graph (memo entries miss via fingerprint)."""
        if isinstance(graph, str):
            graph_name = graph_name if graph_name is not None else graph
            graph = build_graph(graph, scale)
        with self._lock:
            self.graph = graph
            if graph_name is not None:
                self.graph_name = graph_name

    # -- queries ----------------------------------------------------------

    def components(self, algorithm: Optional[str] = None) -> np.ndarray:
        """The component labeling (one label per vertex)."""
        return self.run(algorithm).result.labels

    def num_components(self, algorithm: Optional[str] = None) -> int:
        return self.run(algorithm).result.num_components

    def connected(
        self,
        u: Union[int, np.ndarray],
        v: Union[int, np.ndarray],
        algorithm: Optional[str] = None,
    ) -> Union[bool, np.ndarray]:
        """Whether *u* and *v* share a component (vectorizes over arrays)."""
        labels = self.components(algorithm)
        same = labels[np.asarray(u)] == labels[np.asarray(v)]
        return bool(same) if np.ndim(same) == 0 else same

    def component_sizes(self, algorithm: Optional[str] = None) -> Dict[int, int]:
        """``{component label: vertex count}`` for every component."""
        labels, counts = np.unique(self.components(algorithm), return_counts=True)
        return {int(lab): int(cnt) for lab, cnt in zip(labels, counts)}

    @property
    def stats(self) -> Dict[str, int]:
        """Memo effectiveness counters (fresh runs vs. recalled)."""
        return {"hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session({self.graph_name!r}, algorithm={self.algorithm!r}, "
            f"backend={self.backend.name!r}, memo={len(self._memo)})"
        )

