"""The runtime layer: ExecutionContext isolation, one profiled run.

The refactor's acceptance bar lives here:

* **concurrency** — several :func:`~repro.runtime.session.
  execute_profiled` runs executing simultaneously in a thread pool
  (different graphs, different seeds) must produce exactly the
  labelings and (work, depth) profiles that the same configurations
  produce serially.  Any cost-tracker cross-talk between threads — the
  failure mode the old global singleton stacks invited — shows up as a
  work/depth mismatch.
* **one profiled run** — :func:`execute_profiled` returns a fresh
  profile and leaves the ambient context untouched.
* **context discipline** — :meth:`ExecutionContext.activate` restores
  the previous context even when the body raises: a failing nested
  activation restores the outer context and then the root, in the main
  thread and in a worker thread alike, and a worker's activations
  never change the main thread's context.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.verify import verify_labeling
from repro.decomp import contract, decomp_arb
from repro.errors import ParameterError
from repro.experiments.registry import build_graph
from repro.pram.cost import CostTracker, tracking
from repro.runtime.context import (
    ExecutionContext,
    current_context,
    root_context,
)
from repro.runtime.session import execute_profiled

#: Four distinct (graph, seed) cells for the thread-pool test — enough
#: that the pool genuinely interleaves runs on different inputs.
CONCURRENT_CONFIGS = [
    ("random", 3),
    ("rMat", 11),
    ("3D-grid", 5),
    ("line", 1),
]


def _run_config(gname: str, seed: int):
    """One fresh profiled run; returns (labels, work, depth, components)."""
    graph = build_graph(gname, "tiny")
    prof = execute_profiled(
        "decomp-arb-CC", graph, graph_name=gname, beta=0.2, seed=seed
    )
    return (
        np.array(prof.result.labels, copy=True),
        prof.tracker.total_work(),
        prof.tracker.total_depth(),
        prof.result.num_components,
    )


class TestConcurrentSessions:
    def test_thread_pool_matches_serial_baseline(self):
        """4 runs in 4 threads: correct labelings, isolated profiles."""
        baseline = {(g, s): _run_config(g, s) for g, s in CONCURRENT_CONFIGS}
        barrier = threading.Barrier(len(CONCURRENT_CONFIGS))

        def worker(config):
            gname, seed = config
            barrier.wait()  # maximize actual overlap between the runs
            return config, _run_config(gname, seed)

        with ThreadPoolExecutor(max_workers=len(CONCURRENT_CONFIGS)) as pool:
            results = dict(pool.map(worker, CONCURRENT_CONFIGS))

        for (gname, seed), (labels, work, depth, ncomp) in results.items():
            want_labels, want_work, want_depth, want_ncomp = baseline[(gname, seed)]
            assert np.array_equal(labels, want_labels), (gname, seed)
            # Bit-equal totals: a tracker shared across threads would
            # have accumulated another run's charges.
            assert work == want_work, (gname, seed)
            assert depth == want_depth, (gname, seed)
            assert ncomp == want_ncomp, (gname, seed)
            verify_labeling(build_graph(gname, "tiny"), labels)

    def test_profiles_are_distinct_trackers(self):
        graphs = {g: build_graph(g, "tiny") for g, _ in CONCURRENT_CONFIGS}

        def run(config):
            gname, seed = config
            return execute_profiled(
                "decomp-arb-CC", graphs[gname], beta=0.2, seed=seed
            )

        with ThreadPoolExecutor(max_workers=len(CONCURRENT_CONFIGS)) as pool:
            profiles = list(pool.map(run, CONCURRENT_CONFIGS))
        trackers = [prof.tracker for prof in profiles]
        assert len({id(t) for t in trackers}) == len(trackers)
        for prof in profiles:
            assert prof.tracker.total_work() > 0.0

    def test_contexts_do_not_cross_talk(self):
        """Two activated contexts in two threads record independently."""
        barrier = threading.Barrier(2)

        def worker(charge: float) -> float:
            ctx = current_context().child(tracker=CostTracker())
            with ctx.activate():
                barrier.wait()
                current_context().tracker.add("scan", work=charge)
                barrier.wait()
                return current_context().tracker.total_work()

        with ThreadPoolExecutor(max_workers=2) as pool:
            totals = list(pool.map(worker, [7.0, 19.0]))
        assert totals == [7.0, 19.0]


class TestExecuteProfiled:
    def test_returns_fresh_profile(self):
        graph = build_graph("random", "tiny")
        prof = execute_profiled(
            "decomp-arb-CC", graph, graph_name="random", beta=0.2, seed=1
        )
        assert prof.algorithm == "decomp-arb-CC"
        assert prof.tracker.total_work() > 0.0
        assert prof.wall_seconds > 0.0
        verify_labeling(graph, prof.result.labels)

    def test_caller_tracker_is_used(self):
        graph = build_graph("random", "tiny")
        mine = CostTracker()
        prof = execute_profiled("decomp-arb-CC", graph, tracker=mine, beta=0.2, seed=1)
        assert prof.tracker is mine
        assert mine.total_work() > 0.0

    def test_runs_do_not_leak_into_ambient_context(self):
        before = current_context().tracker
        execute_profiled(
            "decomp-arb-CC", build_graph("random", "tiny"), beta=0.2, seed=1
        )
        assert current_context().tracker is before

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ParameterError):
            execute_profiled("no-such-CC", build_graph("random", "tiny"))

    def test_equal_profiles_compare_without_raising(self):
        # The result records hold ndarrays, so they compare by identity;
        # a generated field-wise __eq__ raised "truth value of an array
        # ... is ambiguous" here.
        graph = build_graph("random", "tiny")
        a, b = (
            execute_profiled("decomp-arb-CC", graph, verify=False, beta=0.2, seed=1)
            for _ in range(2)
        )
        assert np.array_equal(a.result.labels, b.result.labels)
        assert a == a and a != b
        assert a.result == a.result and a.result != b.result
        assert a in [b, a] and b not in [a]
        assert a.result in [b.result, a.result]
        with tracking():
            dec = decomp_arb(graph, 0.2, seed=1)
            con = contract(dec, graph.num_vertices)
        assert dec == dec and dec != decomp_arb(graph, 0.2, seed=1)
        assert con in [con] and con != contract(dec, graph.num_vertices)


class TestContextDiscipline:
    def test_activate_restores_on_exception(self):
        before = current_context()
        ctx = before.child(tracker=CostTracker())
        with pytest.raises(RuntimeError):
            with ctx.activate():
                assert current_context() is ctx
                raise RuntimeError("boom")
        assert current_context() is before

    def test_nested_activate_restores_outer_then_root(self):
        root = current_context()
        outer = root.child(tracker=CostTracker())
        inner = outer.child(tracker=CostTracker())
        with outer.activate():
            with pytest.raises(RuntimeError):
                with inner.activate():
                    assert current_context() is inner
                    raise RuntimeError("boom")
            assert current_context() is outer
        assert current_context() is root

    def test_worker_thread_restores_and_main_is_untouched(self):
        main_ctx = current_context()
        inside, checked = threading.Event(), threading.Event()
        seen = []

        def worker():
            root = current_context()
            outer = root.child(tracker=CostTracker())
            inner = outer.child(tracker=CostTracker())
            with outer.activate():
                try:
                    with inner.activate():
                        seen.append(current_context() is inner)
                        inside.set()
                        assert checked.wait(10)
                        raise RuntimeError("boom")
                except RuntimeError:
                    pass
                seen.append(current_context() is outer)
            seen.append(current_context() is root)

        thread = threading.Thread(target=worker)
        thread.start()
        assert inside.wait(10)
        main_during = current_context()
        checked.set()
        thread.join(10)
        assert not thread.is_alive()
        assert seen == [True, True, True]
        assert main_during is main_ctx
        assert current_context() is main_ctx

    def test_root_context_is_process_wide_default(self):
        assert current_context() is root_context()
        with root_context().child().activate():
            assert current_context() is not root_context()
        assert current_context() is root_context()

    def test_child_seed_derives_fresh_rng(self):
        a = ExecutionContext(seed=5)
        b = a.child(seed=9)
        assert b.seed == 9
        assert a.rng is not b.rng

    def test_workers_is_fixed_at_one(self):
        # Every backend runs on the calling thread; records that report
        # the worker count (benchmark metadata) always read 1.
        assert current_context().workers == 1
        with pytest.raises(AttributeError):
            current_context().workers = 2  # type: ignore[misc]
