"""Structured tracing: nested spans over runs, rounds and phases.

The simulated cost model answers "what would this run cost on a CRCW
PRAM?"; the tracer answers the orthogonal engineering question the
paper's per-phase breakdowns (Figures 5-7) are built on: *where did the
wall-clock go* — which round, which phase, sparse or dense, and how much
(work, depth) was charged while it ran.

Two implementations share one interface:

* :class:`NullTracer` — the process default.  Every hook is a no-op
  and :data:`NullTracer.enabled` is ``False``, so instrumented code can
  guard its bookkeeping (tracker snapshots, argument dicts) behind one
  attribute read.  With the null tracer installed, an instrumented run
  is byte-identical to an uninstrumented one — the golden parity suite
  replays with tracing off *and on* to pin that.
* :class:`Tracer` — records :class:`SpanHandle` completions and
  instant events into an in-memory list, timestamped with
  ``time.perf_counter`` relative to the tracer's construction.

Determinism contract (checked by the tracing on/off parity tests in
``tests/test_obs.py``): tracer code observes — it never mutates shared
arrays, never charges the cost tracker, and never touches the run's
RNG.  Timestamps are wall-clock; everything else recorded is a pure
function of the run.

Span records follow the Chrome ``trace_event`` vocabulary so the export
(:mod:`repro.obs.export`) is a direct mapping: complete spans are
``"X"`` events with microsecond ``ts``/``dur``, phase windows are
``"B"``/``"E"`` pairs, instants are ``"i"``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanHandle",
    "Tracer",
    "TraceEvent",
]

#: One Chrome trace_event-shaped record (see :mod:`repro.obs.export`).
TraceEvent = Dict[str, object]


class Span:
    """Base span handle — the no-op the :class:`NullTracer` hands out.

    :class:`SpanHandle` (the recording subclass) shares this interface,
    so instrumented code holds one static type either way.
    """

    __slots__ = ()

    def set(self, **args: object) -> None:
        """Discard the attributes."""

    def close(self) -> None:
        """Nothing to record."""

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = Span()


class NullTracer:
    """Zero-overhead default tracer: every hook is a no-op.

    Mirrors the ``_NullTracker`` idiom of :mod:`repro.pram.cost`: a
    do-nothing implementation (instead of ``if tracer is not None``
    checks) keeps the instrumented call sites branch-free, and the
    ``enabled`` flag lets the few sites with real bookkeeping cost
    (per-round tracker snapshots) skip it entirely.
    """

    #: Instrumentation guards expensive argument collection behind this.
    enabled: bool = False

    def span(self, name: str, cat: str = "run", **args: object) -> Span:
        """Open a span; the returned handle is a context manager."""
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "run", **args: object) -> None:
        """Record a point event."""

    def phase_begin(self, label: str) -> None:
        """Cost-tracker phase window opened (observer hook)."""

    def phase_end(self, label: str) -> None:
        """Cost-tracker phase window closed (observer hook)."""


#: The shared process-default tracer (the ``ExecutionContext`` default).
NULL_TRACER = NullTracer()


class SpanHandle(Span):
    """One open span of an active :class:`Tracer`.

    Close it exactly once — either via :meth:`close` or by using the
    handle as a context manager.  :meth:`set` attaches attributes that
    land in the trace event's ``args`` (work/depth deltas, frontier
    sizes, the direction decision, ...).
    """

    __slots__ = ("_tracer", "name", "cat", "args", "start_us", "tid", "_open")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        args: Dict[str, object],
        start_us: float,
        tid: int,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.start_us = start_us
        self.tid = tid
        self._open = True

    def set(self, **args: object) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.args.update(args)

    def close(self) -> None:
        """Record the span as a complete (``"X"``) trace event."""
        if not self._open:
            return
        self._open = False
        self._tracer._complete(self)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Tracer(NullTracer):
    """Records spans, phase windows and instants with real timestamps.

    Thread-safe: spans opened from different threads interleave into
    one event list (each event carries the opening thread's id), which
    is what the Chrome trace viewer expects.  The tracer itself never
    blocks a run on anything but one short list-append lock.

    Parameters
    ----------
    clock:
        Injectable time source (seconds, monotonic); tests pin it to a
        fake to get deterministic timestamps.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._t0 = clock()
        self.pid = os.getpid()
        self.events: List[TraceEvent] = []
        self._tids: Dict[int, int] = {}

    # -- internal plumbing -------------------------------------------------

    def _now_us(self) -> float:
        return (self._clock() - self._t0) * 1e6

    def _tid(self) -> int:
        """Small stable per-thread id (0 = the first thread seen)."""
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._tids[ident] = len(self._tids)
            return tid

    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            self.events.append(event)

    def _complete(self, span: SpanHandle) -> None:
        end_us = self._now_us()
        self._append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.start_us,
                "dur": max(0.0, end_us - span.start_us),
                "pid": self.pid,
                "tid": span.tid,
                "args": span.args,
            }
        )

    # -- the recording interface -------------------------------------------

    def span(self, name: str, cat: str = "run", **args: object) -> SpanHandle:
        """Open a span; record it when the handle closes."""
        return SpanHandle(self, name, cat, dict(args), self._now_us(), self._tid())

    def instant(self, name: str, cat: str = "run", **args: object) -> None:
        self._append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": self._now_us(),
                "s": "t",  # thread-scoped instant
                "pid": self.pid,
                "tid": self._tid(),
                "args": dict(args),
            }
        )

    def phase_begin(self, label: str) -> None:
        """Cost-tracker phases map to ``B``/``E`` duration events."""
        self._append(
            {
                "name": label,
                "cat": "phase",
                "ph": "B",
                "ts": self._now_us(),
                "pid": self.pid,
                "tid": self._tid(),
            }
        )

    def phase_end(self, label: str) -> None:
        self._append(
            {
                "name": label,
                "cat": "phase",
                "ph": "E",
                "ts": self._now_us(),
                "pid": self.pid,
                "tid": self._tid(),
            }
        )

    # -- inspection --------------------------------------------------------

    def spans(self, cat: Optional[str] = None) -> List[TraceEvent]:
        """The recorded complete (``"X"``) spans, optionally by category."""
        with self._lock:
            return [
                e
                for e in self.events
                if e["ph"] == "X" and (cat is None or e["cat"] == cat)
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)
