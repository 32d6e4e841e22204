"""Counters and histograms for the runtime, session and backend layers.

Where the tracer (:mod:`repro.obs.tracer`) records *when* things
happened, the metrics registry records *how often* and *how big*:
Session memo hits and misses, workspace-pool claims, resilience
retries, fault injections, fuzz oracle comparisons.  The catalog of names lives in
``docs/observability.md``.

The same null-object idiom as the tracer applies: the process default
is :data:`NULL_METRICS`, whose mutators do nothing, so instrumented
call sites never branch.  An active :class:`Metrics` is thread-safe
(one lock around every mutation) and snapshots to plain ``dict``s of
native Python types, ready for ``json.dump``.

Determinism contract: metrics are observational.  Counter values may
legitimately differ between configurations (a second `Session.run`
records a memo hit where the first recorded a miss), but recording them never feeds back into the run.
"""

from __future__ import annotations

import threading
from typing import Dict, List

__all__ = ["Metrics", "NULL_METRICS", "NullMetrics"]


class NullMetrics:
    """Zero-overhead default: counts nothing, reports empty snapshots."""

    enabled: bool = False

    def incr(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name``."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return 0

    def snapshot(self) -> Dict[str, object]:
        """Flat JSON-ready dump of all counters and histogram summaries."""
        return {"counters": {}, "histograms": {}}


NULL_METRICS = NullMetrics()


class Metrics(NullMetrics):
    """Thread-safe counter/histogram registry.

    Histograms keep every sample (runs are short; a decomposition
    records at most a few thousand observations) and summarize to
    count/min/max/sum on :meth:`snapshot` — enough for the CLI dump and
    the trace sidecar without binning policy.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, List[float]] = {}

    def incr(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self._histograms.setdefault(name, []).append(float(value))

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def samples(self, name: str) -> List[float]:
        """The raw samples recorded into histogram ``name``."""
        with self._lock:
            return list(self._histograms.get(name, ()))

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counters = {name: int(v) for name, v in sorted(self._counters.items())}
            histograms = {
                name: {
                    "count": len(samples),
                    "min": min(samples),
                    "max": max(samples),
                    "sum": sum(samples),
                }
                for name, samples in sorted(self._histograms.items())
                if samples
            }
        return {"counters": counters, "histograms": histograms}
