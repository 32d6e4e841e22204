"""Chrome ``trace_event`` JSON export and schema validation.

The on-disk format is the JSON Object Format from the Chrome Trace
Event specification: a top-level object with a ``traceEvents`` array,
loadable directly in ``chrome://tracing`` or https://ui.perfetto.dev.
Unknown top-level keys are ignored by both viewers, so we ride the
metrics snapshot and run metadata alongside the events::

    {
      "traceEvents": [...],        # "X"/"B"/"E"/"i"/"M" records
      "displayTimeUnit": "ms",
      "metrics": {...},            # Metrics.snapshot()
      "meta": {...}                # graph/algorithm/backend
    }

:func:`validate_trace` re-checks that shape (it is what the CI
trace-smoke job runs against the ``repro trace`` artifact), and
:func:`jsonable` scrubs NumPy scalars at the serialization boundary
without this package importing NumPy — ``repro.obs`` stays a stdlib
leaf so the runtime layer can import it unconditionally.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Mapping, Optional

from repro.obs.metrics import NullMetrics
from repro.obs.tracer import TraceEvent, Tracer

__all__ = [
    "jsonable",
    "phase_totals",
    "trace_document",
    "validate_trace",
    "write_trace",
]

#: Event phase codes this exporter emits / the validator accepts.
_PHASES = {"X", "B", "E", "i", "M"}


def jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` to json.dump-safe native Python.

    NumPy scalars and 0-d arrays are recognized by their ``item()``
    method rather than by type, keeping this module free of a NumPy
    import.  Mapping keys are coerced too (``np.int64`` keys crash
    ``json.dump`` with ``TypeError: keys must be str...``).
    """
    if isinstance(value, (str, bytes)) or value is None:
        return value
    if isinstance(value, bool):
        return value
    if isinstance(value, Mapping):
        return {_key(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return item()
    if callable(item) and not hasattr(value, "shape"):
        # NumPy scalar types (np.int64, np.float64, np.bool_) have
        # .item() but no shape-() check shortcut; generic Python ints
        # and floats fall through the isinstance checks below first.
        return item()
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "tolist"):
        return jsonable(value.tolist())
    return value


def _key(key: Any) -> Any:
    """Coerce a mapping key; json.dump accepts str/int/float/bool/None."""
    if isinstance(key, str):
        return key
    coerced = jsonable(key)
    if isinstance(coerced, (str, int, float, bool)) or coerced is None:
        return coerced
    return str(coerced)


def trace_document(
    tracer: Tracer,
    metrics: Optional[NullMetrics] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the loadable trace document from a finished run."""
    events: List[TraceEvent] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": tracer.pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    with tracer._lock:
        recorded = list(tracer.events)
        tids = dict(tracer._tids)
    for tid in sorted(tids.values()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": tracer.pid,
                "tid": tid,
                "args": {"name": "main" if tid == 0 else f"worker-{tid}"},
            }
        )
    events.extend(recorded)
    doc: Dict[str, Any] = {
        "traceEvents": jsonable(events),
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        doc["metrics"] = jsonable(metrics.snapshot())
    if meta is not None:
        doc["meta"] = jsonable(dict(meta))
    return doc


def validate_trace(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed trace document.

    Checks the invariants the viewers rely on: ``traceEvents`` is a
    list of objects each carrying ``name``/``ph``/``pid``/``tid``, a
    known phase code, numeric non-negative ``ts`` where required, and
    numeric non-negative ``dur`` on complete events.  ``B``/``E``
    begin/end events must balance per (pid, tid, name).
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document missing 'traceEvents' list")
    open_phases: Dict[tuple, int] = {}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: event must be an object")
        ph = event.get("ph")
        if ph not in _PHASES:
            raise ValueError(f"{where}: unknown phase code {ph!r}")
        for field in ("name", "pid", "tid"):
            if field not in event:
                raise ValueError(f"{where}: missing {field!r}")
        if not isinstance(event["name"], str):
            raise ValueError(f"{where}: 'name' must be a string")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
                raise ValueError(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                raise ValueError(f"{where}: 'dur' must be a non-negative number")
        if ph in ("B", "E"):
            key = (event["pid"], event["tid"], event["name"])
            depth = open_phases.get(key, 0) + (1 if ph == "B" else -1)
            if depth < 0:
                raise ValueError(f"{where}: 'E' event with no matching 'B'")
            open_phases[key] = depth
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            raise ValueError(f"{where}: 'args' must be an object")
    dangling = [key for key, depth in open_phases.items() if depth]
    if dangling:
        raise ValueError(f"unbalanced B/E phase events: {sorted(dangling)!r}")
    metrics = doc.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict) or not isinstance(
            metrics.get("counters"), dict
        ):
            raise ValueError("'metrics' must be an object with a 'counters' map")


def phase_totals(tracer: Tracer) -> Dict[str, float]:
    """Wall seconds inside each recorded phase window, summed by name.

    Aggregates the ``B``/``E`` events the cost tracker's observer hook
    emits (see :meth:`repro.pram.cost.CostTracker.phase`) into the
    per-phase wall-clock breakdown the paper's Figures 5-7 report.
    Windows nest (the innermost label was active); each label's total
    counts its own outermost windows once, per thread.
    """
    totals: Dict[str, float] = {}
    open_windows: Dict[tuple, list] = {}
    with tracer._lock:
        events = list(tracer.events)
    for event in events:
        ph = event.get("ph")
        if ph not in ("B", "E"):
            continue
        key = (event["pid"], event["tid"], event["name"])
        stack = open_windows.setdefault(key, [])
        if ph == "B":
            stack.append(float(event["ts"]))  # type: ignore[arg-type]
        elif stack:
            start = stack.pop()
            if not stack:  # outermost window of this label only
                name = str(event["name"])
                duration = (float(event["ts"]) - start) / 1e6  # type: ignore[arg-type]
                totals[name] = totals.get(name, 0.0) + duration
    return totals


def write_trace(
    fp_or_path: Any,
    tracer: Tracer,
    metrics: Optional[NullMetrics] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Validate and write the trace document; return it.

    ``fp_or_path`` is a path (str / PathLike) or an open text file.
    """
    doc = trace_document(tracer, metrics=metrics, meta=meta)
    validate_trace(doc)
    if hasattr(fp_or_path, "write"):
        fp: IO[str] = fp_or_path
        json.dump(doc, fp, indent=2)
        fp.write("\n")
    else:
        with open(fp_or_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return doc
