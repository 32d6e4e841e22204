"""Observability layer: span/metrics units + the tracing-determinism bar.

The acceptance contract of :mod:`repro.obs` is *observational purity*:
an instrumented run under an active :class:`~repro.obs.Tracer` must be
byte-identical — labelings, inter-edge lists, round statistics and
(work, depth) charges — to the same run under the default
:class:`~repro.obs.NullTracer`.  The determinism tests here replay a
golden-style capture subset (the same ``capture_one``/``capture_bfs``
helpers the parity suite uses) with tracing off and on, under both
execution backends and on several threads sharing one tracer, and
require exact equality.

The unit half pins the span model (nesting, close-once, thread ids),
the trace-event schema (via :func:`~repro.obs.validate_trace`), the
phase-window aggregation, and the metrics counter semantics the
runtime layers feed (memo hit/miss).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.decomp import DECOMP_VARIANTS
from repro.engine.backend import resolve_backend
from repro.experiments.registry import build_graph
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    Metrics,
    NullMetrics,
    NullTracer,
    Span,
    SpanHandle,
    Tracer,
    jsonable,
    phase_totals,
    trace_document,
    validate_trace,
    write_trace,
)
from repro.runtime.context import current_context
from repro.runtime.session import execute_profiled

from tests.conftest import _zoo, run_on_threads
from tests.golden.generate_decomp_parity import capture_bfs, capture_one


class FakeClock:
    """Deterministic clock: advances a fixed step per call."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture()
def tracer() -> Tracer:
    return Tracer(clock=FakeClock())


# -- the span model --------------------------------------------------------


class TestSpanModel:
    def test_null_tracer_is_a_disabled_noop(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("round", "round", round=0)
        assert isinstance(span, Span) and not isinstance(span, SpanHandle)
        span.set(frontier=10)
        span.close()
        NULL_TRACER.instant("note")
        NULL_TRACER.phase_begin("init")
        NULL_TRACER.phase_end("init")
        # No state anywhere: the null tracer records nothing.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_spans_nest_and_record_on_close(self, tracer):
        outer = tracer.span("run", "run", algorithm="decomp-arb-CC")
        inner = tracer.span("round", "round")
        inner.set(round=0, frontier=5)
        inner.close()
        outer.close()
        events = tracer.spans()
        assert [e["name"] for e in events] == ["round", "run"]
        inner_ev, outer_ev = events
        assert inner_ev["args"] == {"round": 0, "frontier": 5}
        assert outer_ev["args"] == {"algorithm": "decomp-arb-CC"}
        # The inner span opened later and closed earlier: it nests.
        assert inner_ev["ts"] >= outer_ev["ts"]
        assert inner_ev["ts"] + inner_ev["dur"] <= outer_ev["ts"] + outer_ev["dur"]

    def test_close_is_idempotent(self, tracer):
        span = tracer.span("round", "round")
        span.close()
        span.close()
        assert len(tracer.spans("round")) == 1

    def test_span_is_a_context_manager(self, tracer):
        with tracer.span("run", "run") as span:
            span.set(graph="line")
        (event,) = tracer.spans("run")
        assert event["args"] == {"graph": "line"}

    def test_instants_and_phase_windows(self, tracer):
        tracer.phase_begin("init")
        tracer.instant("direction", "round", dense=False)
        tracer.phase_end("init")
        phs = [e["ph"] for e in tracer.events]
        assert phs == ["B", "i", "E"]
        assert tracer.events[1]["args"] == {"dense": False}
        assert tracer.events[0]["name"] == tracer.events[2]["name"] == "init"

    def test_thread_ids_are_small_and_stable(self, tracer):
        tracer.instant("main-1")
        done = threading.Event()

        def worker():
            tracer.instant("worker-1")
            tracer.instant("worker-2")
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert done.is_set()
        tracer.instant("main-2")
        tids = {e["name"]: e["tid"] for e in tracer.events}
        assert tids["main-1"] == tids["main-2"] == 0
        assert tids["worker-1"] == tids["worker-2"] == 1


# -- metrics ---------------------------------------------------------------


class TestMetrics:
    def test_null_metrics_counts_nothing(self):
        NULL_METRICS.incr("x")
        NULL_METRICS.observe("h", 3.0)
        assert NULL_METRICS.enabled is False
        assert NULL_METRICS.counter("x") == 0
        assert NULL_METRICS.snapshot() == {"counters": {}, "histograms": {}}

    def test_counters_accumulate(self):
        m = Metrics()
        m.incr("a")
        m.incr("a", 4)
        m.incr("b")
        assert m.counter("a") == 5
        assert m.counter("never") == 0
        assert m.snapshot()["counters"] == {"a": 5, "b": 1}

    def test_histograms_summarize(self):
        m = Metrics()
        for v in (4.0, 1.0, 7.0):
            m.observe("shards", v)
        assert m.samples("shards") == [4.0, 1.0, 7.0]
        summary = m.snapshot()["histograms"]["shards"]
        assert summary == {"count": 3, "min": 1.0, "max": 7.0, "sum": 12.0}

    def test_snapshot_is_json_ready(self):
        m = Metrics()
        m.incr("a", 2)
        m.observe("h", 0.5)
        json.dumps(m.snapshot())  # must not raise

    def test_thread_safety_of_incr(self):
        m = Metrics()

        def bump():
            for _ in range(1000):
                m.incr("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == 4000


# -- JSON coercion ---------------------------------------------------------


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        np = pytest.importorskip("numpy")
        out = jsonable(
            {
                np.int64(3): np.int64(7),
                "f": np.float64(0.5),
                "flag": np.bool_(True),
                "arr": np.arange(3, dtype=np.int64),
            }
        )
        assert out == {3: 7, "f": 0.5, "flag": True, "arr": [0, 1, 2]}
        json.dumps(out)  # the whole point: json.dump-safe

    def test_nested_containers(self):
        out = jsonable({"t": (1, 2), "l": [{"k": None}], "s": "x"})
        assert out == {"t": [1, 2], "l": [{"k": None}], "s": "x"}

    def test_native_types_pass_through(self):
        for value in (True, 3, 0.5, "s", None):
            assert jsonable(value) == value


# -- schema validation -----------------------------------------------------


def _event(**kw):
    base = {"name": "x", "ph": "i", "ts": 0.0, "pid": 1, "tid": 0}
    base.update(kw)
    return base


class TestValidateTrace:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate_trace([])

    def test_rejects_missing_events_list(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_trace({"displayTimeUnit": "ms"})

    def test_rejects_unknown_phase_code(self):
        with pytest.raises(ValueError, match="phase code"):
            validate_trace({"traceEvents": [_event(ph="Q")]})

    def test_rejects_negative_timestamps(self):
        with pytest.raises(ValueError, match="'ts'"):
            validate_trace({"traceEvents": [_event(ts=-1.0)]})

    def test_rejects_complete_event_without_duration(self):
        with pytest.raises(ValueError, match="'dur'"):
            validate_trace({"traceEvents": [_event(ph="X")]})

    def test_rejects_unbalanced_phase_windows(self):
        with pytest.raises(ValueError, match="unbalanced"):
            validate_trace({"traceEvents": [_event(ph="B")]})
        with pytest.raises(ValueError, match="no matching"):
            validate_trace({"traceEvents": [_event(ph="E")]})

    def test_rejects_non_dict_args(self):
        with pytest.raises(ValueError, match="args"):
            validate_trace({"traceEvents": [_event(args=[1])]})

    def test_accepts_real_document(self, tracer):
        with tracer.span("run", "run"):
            tracer.phase_begin("init")
            tracer.instant("note")
            tracer.phase_end("init")
        metrics = Metrics()
        metrics.incr("runtime.runs")
        doc = trace_document(tracer, metrics, meta={"graph": "line"})
        validate_trace(doc)  # must not raise
        assert doc["metrics"]["counters"] == {"runtime.runs": 1}
        assert doc["meta"] == {"graph": "line"}


class TestPhaseTotals:
    def test_outermost_windows_only(self):
        clock = FakeClock(step=1.0)  # 1 s per tick -> 1e6 us deltas
        tracer = Tracer(clock=clock)
        tracer.phase_begin("bfs")  # t=1
        tracer.phase_begin("bfs")  # nested re-entry, t=2
        tracer.phase_end("bfs")  # t=3
        tracer.phase_end("bfs")  # t=4: outermost window spans 3 s
        tracer.phase_begin("contract")  # t=5
        tracer.phase_end("contract")  # t=6
        totals = phase_totals(tracer)
        assert totals == {"bfs": pytest.approx(3.0), "contract": pytest.approx(1.0)}


# -- integration: a traced profiled run ------------------------------------


@pytest.fixture(scope="module")
def zoo():
    return _zoo()


@pytest.fixture()
def traced_run():
    graph = build_graph("random", "tiny")
    tracer, metrics = Tracer(), Metrics()
    with current_context().child(tracer=tracer, metrics=metrics).activate():
        prof = execute_profiled(
            "decomp-arb-CC", graph, graph_name="random", beta=0.2, seed=1
        )
    return tracer, metrics, prof


class TestTracedRun:
    def test_run_span_carries_charges(self, traced_run):
        tracer, metrics, prof = traced_run
        (run_span,) = tracer.spans("run")
        assert run_span["args"]["algorithm"] == "decomp-arb-CC"
        assert run_span["args"]["work"] == prof.tracker.total_work()
        assert run_span["args"]["depth"] == prof.tracker.total_depth()
        assert metrics.counter("runtime.runs") == 1

    def test_round_spans_cover_the_run(self, traced_run):
        tracer, _, prof = traced_run
        rounds = tracer.spans("round")
        assert len(rounds) >= 1
        # Per-round (work, depth) deltas are disjoint slices of the run:
        # positive, and summing to no more than the run totals (work
        # outside the round loop — init, contraction — is not a round's).
        round_work = sum(s["args"]["work"] for s in rounds)
        round_depth = sum(s["args"]["depth"] for s in rounds)
        assert 0.0 < round_work <= prof.tracker.total_work()
        assert 0.0 < round_depth <= prof.tracker.total_depth()
        assert all(s["args"]["frontier"] >= 0 for s in rounds)

    def test_phase_windows_match_tracker_phases(self, traced_run):
        tracer, _, prof = traced_run
        totals = phase_totals(tracer)
        # Every phase that charged work had an observed window; windows
        # that charged nothing (e.g. a filter pass over zero edges) may
        # still appear in the wall-clock totals.
        assert set(prof.tracker.work_by_phase()) <= set(totals)
        assert all(secs >= 0.0 for secs in totals.values())

    def test_document_round_trips_through_disk(self, traced_run, tmp_path):
        tracer, metrics, prof = traced_run
        path = tmp_path / "run.trace.json"
        write_trace(
            path, tracer, metrics, meta={"work": prof.tracker.total_work()}
        )
        doc = json.loads(path.read_text())
        validate_trace(doc)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["meta"]["work"] == prof.tracker.total_work()
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"process_name", "run", "round"} <= names


class TestRuntimeCounters:
    def test_runtime_runs_counts_each_profiled_run(self):
        metrics = Metrics()
        graph = build_graph("random", "tiny")
        with current_context().child(metrics=metrics).activate():
            execute_profiled("decomp-arb-CC", graph, beta=0.2, seed=2)
        assert metrics.counter("runtime.runs") == 1


# -- the determinism bar: tracing off vs on, byte-identical ----------------

#: (backend, threads) executions the traced replay must match untraced.
#: ``parallel-wN`` replays on N threads at once that share one tracer
#: and one metrics registry; ``threads == 0`` is the calling thread.
EXECUTIONS = [
    pytest.param(("reference", 0), id="reference"),
    pytest.param(("fast", 0), id="fast"),
    pytest.param(("fast", 1), id="parallel-w1"),
    pytest.param(("fast", 4), id="parallel-w4"),
]

#: The replay subset: every decomposition variant on a multi-component
#: graph and a structured one — small enough to run per-execution,
#: diverse enough that a tracer perturbing rounds/frontiers would show.
DETERMINISM_CELLS = [
    (variant, gname)
    for variant in sorted(DECOMP_VARIANTS)
    for gname in ("rmat", "union")
]


def _capture(execution, tracer, metrics, fn):
    """*fn*'s results under *execution*: one per replaying thread."""
    backend, threads = execution

    def replay():
        ctx = current_context().child(
            backend=resolve_backend(backend), tracer=tracer, metrics=metrics
        )
        with ctx.activate():
            return fn()

    return [replay()] if threads == 0 else run_on_threads(replay, threads)


class TestTracingDeterminism:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize(
        "cell", DETERMINISM_CELLS, ids=[f"{v}-{g}" for v, g in DETERMINISM_CELLS]
    )
    def test_decomp_capture_identical_with_tracing_on(self, cell, execution, zoo):
        variant, gname = cell
        run = lambda: capture_one(DECOMP_VARIANTS[variant], zoo[gname], 0.2, 1)
        untraced = _capture(execution, NULL_TRACER, NullMetrics(), run)
        tracer = Tracer()
        traced = _capture(execution, tracer, Metrics(), run)
        # The capture dict pins labelings (sha256), inter-edges, round
        # statistics and the full (phase, kind) work/depth profile:
        # whole-dict equality IS the byte-identical contract.
        assert traced == untraced
        # ... and the traced replay genuinely recorded the run (the
        # capture's num_rounds counts one decomposition; the traced
        # replay may run further engine loops, e.g. contraction levels),
        # on every replaying thread.
        rounds = tracer.spans("round")
        assert len(rounds) >= len(traced) * untraced[0]["num_rounds"] > 0
        assert len({e["tid"] for e in rounds}) == len(traced)

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_bfs_family_identical_with_tracing_on(self, execution, zoo):
        run = lambda: capture_bfs(zoo["grid"])
        untraced = _capture(execution, NULL_TRACER, NullMetrics(), run)
        tracer = Tracer()
        traced = _capture(execution, tracer, Metrics(), run)
        assert traced == untraced
        assert len(tracer) > 0

    def test_a_span_that_writes_back_breaks_parity(self, monkeypatch, zoo):
        """Negative control: the parity check sees a span that charges."""
        real = Tracer.span

        def charging(self, name, cat="run", **args):
            current_context().tracker.add("scan", work=1.0, depth=0.0)
            return real(self, name, cat, **args)

        monkeypatch.setattr(Tracer, "span", charging)
        run = lambda: capture_one(DECOMP_VARIANTS["arb"], zoo["rmat"], 0.2, 1)
        untraced = _capture(("fast", 0), NULL_TRACER, NullMetrics(), run)
        traced = _capture(("fast", 0), Tracer(), Metrics(), run)
        assert traced != untraced

    def test_traced_parallel_matches_untraced_fast(self, zoo):
        """Cross-configuration: 4 threads sharing one tracer vs plain fast."""
        run = lambda: capture_one(DECOMP_VARIANTS["arb"], zoo["rmat"], 0.2, 1)
        (baseline,) = _capture(("fast", 0), NULL_TRACER, NullMetrics(), run)
        traced = _capture(("fast", 4), Tracer(), Metrics(), run)
        assert traced == [baseline] * 4
