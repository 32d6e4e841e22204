"""The explicit execution context: one object instead of four globals.

Historically every run communicated with the kernels through four
separate module-global mutable stacks — the cost tracker
(``pram.cost``), the fault plan (``resilience.faults``), the race
sanitizer (``pram.sanitizer``) and the execution backend
(``engine.backend``).  That ambient-state pattern is exactly what the
reprolint pass polices *inside* kernels, and it made running two
labelings in two threads unsafe: two threads pushing onto one stack
corrupt each other's accounting.

:class:`ExecutionContext` bundles all of that per-run state into one
immutable-by-convention record carried in a single
:data:`contextvars.ContextVar`.  ``contextvars`` gives every thread —
and every asyncio task — its own independent binding, so concurrent
runs (:func:`~repro.runtime.session.execute_profiled` in a thread
pool) are isolated for free: a tracker activated in one thread is
invisible to every other.

The reading side is :func:`current_context`; kernels use it as::

    ctx = current_context()
    ctx.tracker.add("scan", work=float(n), depth=1.0)
    if ctx.fault_plan is not None: ...

The writing side is :meth:`ExecutionContext.activate` — the single
exception-safe push/pop in the whole package (a ``ContextVar`` token
reset in ``finally``).  The legacy context managers (``tracking``,
``sanitizing``, ``use_backend``, ``FaultPlan.activate``) are now thin
wrappers that derive a :meth:`child` context and activate it.
"""

from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterator, Optional

import numpy as np

from repro.obs.metrics import NULL_METRICS, NullMetrics
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.pram.cost import _NULL, CostTracker

if TYPE_CHECKING:
    from repro.engine.backend import ExecutionBackend
    from repro.engine.workspace import NullWorkspace
    from repro.pram.sanitizer import PramSanitizer
    from repro.resilience.faults import FaultPlan

__all__ = [
    "ExecutionContext",
    "FROM_CONTEXT",
    "current_context",
    "root_context",
]

#: Default of the hot-path primitives' ``plan=`` and ``sanitizer=``
#: arguments: read them from the active context (``None`` there means
#: "none armed").  Round kernels pass what their state resolved once per
#: level instead.
FROM_CONTEXT: Any = object()


def _default_backend() -> "ExecutionBackend":
    # Imported lazily so this module stays below the engine in the
    # layering — the primitives and graphs layers import it at module
    # level.
    from repro.engine.backend import BACKENDS, DEFAULT_BACKEND_NAME

    return BACKENDS[DEFAULT_BACKEND_NAME]


@dataclass
class ExecutionContext:
    """Everything one run needs, bundled and thread-isolated.

    Attributes
    ----------
    tracker:
        The (work, depth) accumulator charges land in.  Defaults to the
        shared discard-everything null tracker, so uninstrumented code
        costs one no-op method call.
    backend:
        The :class:`~repro.engine.backend.ExecutionBackend` kernels
        consult for their execution strategy.
    fault_plan:
        The armed :class:`~repro.resilience.faults.FaultPlan`, or
        ``None`` (the common, free case).
    sanitizer:
        The active :class:`~repro.pram.sanitizer.PramSanitizer`, or
        ``None``.
    seed / rng:
        The context's seed and the generator derived from it; a caller
        that derives ``child(seed=...)`` makes host-side randomness
        reproducible per context.
    tracer:
        The :mod:`repro.obs` span recorder.  Defaults to the shared
        no-op :data:`~repro.obs.tracer.NULL_TRACER`; instrumented code
        guards any bookkeeping behind ``tracer.enabled``.
    metrics:
        The :mod:`repro.obs` counter/histogram registry; defaults to
        the no-op :data:`~repro.obs.metrics.NULL_METRICS`.
    """

    tracker: CostTracker = field(default_factory=lambda: _NULL)
    backend: "ExecutionBackend" = field(default_factory=_default_backend)
    fault_plan: "Optional[FaultPlan]" = None
    sanitizer: "Optional[PramSanitizer]" = None
    seed: int = 0
    rng: Optional[np.random.Generator] = None
    tracer: NullTracer = field(default_factory=lambda: NULL_TRACER)
    metrics: NullMetrics = field(default_factory=lambda: NULL_METRICS)

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)

    @property
    def workers(self) -> int:
        """Host threads a run uses: always 1.

        Every backend runs on the calling thread; the paper's thread
        scaling comes from the cost model.  Benchmark records report
        this value in their metadata.
        """
        return 1

    # -- derivation --------------------------------------------------------

    def child(self, **overrides: object) -> "ExecutionContext":
        """A copy of this context with *overrides* replaced.

        The derived context shares every field it does not override
        (including the ``rng`` instance — override ``seed`` to get a
        fresh, reproducible stream).
        """
        if "seed" in overrides and "rng" not in overrides:
            overrides["rng"] = np.random.default_rng(int(overrides["seed"]))  # type: ignore[arg-type]
        return replace(self, **overrides)  # type: ignore[arg-type]

    # -- activation (the one push/pop in the package) ----------------------

    @contextlib.contextmanager
    def activate(self) -> Iterator["ExecutionContext"]:
        """Install this context for the ``with`` body.

        Exception-safe by construction: the ``ContextVar`` token is
        reset in ``finally``, so no failure path can leave a stale
        context installed — the bug class the old module-level
        push/pop stacks could not rule out.
        """
        token = _CONTEXT.set(self)
        try:
            yield self
        finally:
            _CONTEXT.reset(token)

    # -- workspace ---------------------------------------------------------

    def acquire_workspace(self, num_vertices: int) -> "NullWorkspace":
        """The bound backend's shared workspace (*num_vertices* is unused).

        Equivalent to ``self.backend.workspace``; the benchmark harness
        calls it by this name.
        """
        return self.backend.workspace


#: The ambient default: null tracker, process-default backend, nothing
#: armed.  Created lazily (its backend field resolves through the
#: engine layer).
_ROOT: Optional[ExecutionContext] = None
_ROOT_LOCK = threading.Lock()

_CONTEXT: ContextVar[Optional[ExecutionContext]] = ContextVar(
    "repro_execution_context", default=None
)


def current_context() -> ExecutionContext:
    """The innermost activated context, or the process root."""
    ctx = _CONTEXT.get()
    return ctx if ctx is not None else root_context()


def root_context() -> ExecutionContext:
    """The process-root context (the default when nothing is activated)."""
    global _ROOT
    if _ROOT is None:
        with _ROOT_LOCK:
            if _ROOT is None:
                _ROOT = ExecutionContext()
    return _ROOT

