"""The runtime layer: ExecutionContext isolation, Session memo/pooling.

The refactor's acceptance bar lives here:

* **concurrency** — several :class:`~repro.runtime.session.Session`
  objects running simultaneously in a thread pool (different graphs,
  different seeds) must produce exactly the labelings and (work, depth)
  profiles that the same configurations produce serially.  Any
  cost-tracker cross-talk between threads — the failure mode the old
  global singleton stacks invited — shows up as a work/depth mismatch.
* **memoization** — a repeated plain run is a dictionary hit returning
  the *same* profile object; replacing the graph changes the CSR
  fingerprint and misses; rebuilding a byte-identical graph hits again.
* **context discipline** — :meth:`ExecutionContext.activate` restores
  the previous context even when the body raises.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.verify import verify_labeling
from repro.errors import ParameterError
from repro.experiments.registry import build_graph
from repro.obs import Metrics
from repro.pram.cost import CostTracker
from repro.runtime.context import (
    ExecutionContext,
    current_context,
    root_context,
)
from repro.runtime.session import Session, execute_profiled

#: Four distinct (graph, seed) cells for the thread-pool test — enough
#: that the pool genuinely interleaves runs on different inputs.
CONCURRENT_CONFIGS = [
    ("random", 3),
    ("rMat", 11),
    ("3D-grid", 5),
    ("line", 1),
]


def _run_config(gname: str, seed: int):
    """One fresh session run; returns (labels, work, depth, components)."""
    sess = Session(gname, scale="tiny", seed=seed)
    prof = sess.run()
    return (
        np.array(prof.result.labels, copy=True),
        prof.tracker.total_work(),
        prof.tracker.total_depth(),
        prof.result.num_components,
    )


class TestConcurrentSessions:
    def test_thread_pool_matches_serial_baseline(self):
        """4 sessions in 4 threads: correct labelings, isolated profiles."""
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
        sessions = [Session(g, scale="tiny", seed=s) for g, s in CONCURRENT_CONFIGS]
        with ThreadPoolExecutor(max_workers=len(sessions)) as pool:
            profiles = list(pool.map(lambda sess: sess.run(), sessions))
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

    def test_overlapping_activations_never_share_the_pool(self):
        """An activation claims the pooled arena like a run does."""
        sess = Session("random", scale="tiny", seed=2)
        with sess.activate() as outer:
            with sess.activate() as inner:
                assert outer.workspace is not None
                assert inner.workspace is None  # builds a fresh arena
            metrics = Metrics()

            def run() -> None:
                with current_context().child(metrics=metrics).activate():
                    sess.run()

            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(run).result()
            # The concurrent run proceeded on a fresh arena too.
            assert metrics.counter("session.pool.fresh") == 1
            assert metrics.counter("session.pool.claimed") == 0
        with sess.activate() as again:
            assert again.workspace is outer.workspace  # released on exit


class TestSessionMemo:
    def test_repeat_run_hits(self):
        sess = Session("random", scale="tiny", seed=2)
        first = sess.run()
        second = sess.run()
        assert second is first  # a memo hit returns the cached profile
        assert sess.stats == {"hits": 1, "misses": 1}

    def test_distinct_seeds_miss(self):
        sess = Session("random", scale="tiny", seed=2)
        sess.run()
        sess.run(seed=3)
        assert sess.stats == {"hits": 0, "misses": 2}

    def test_graph_change_invalidates(self):
        sess = Session("random", scale="tiny", seed=2)
        first = sess.run()
        sess.set_graph("rMat", scale="tiny")
        other = sess.run()
        assert other is not first
        assert sess.stats == {"hits": 0, "misses": 2}

    def test_identical_rebuild_still_hits(self):
        # The memo keys on the CSR fingerprint, not object identity: a
        # byte-identical rebuild of the same graph recalls the labeling.
        sess = Session("random", scale="tiny", seed=2)
        first = sess.run()
        sess.set_graph(build_graph("random", "tiny"), graph_name="random")
        assert sess.run() is first
        assert sess.stats == {"hits": 1, "misses": 1}

    def test_fault_and_extra_kwargs_bypass_memo(self):
        sess = Session("random", scale="tiny", seed=2)
        sess.run()
        sess.run()  # hit
        prof = sess.run("decomp-arb-CC", schedule_mode="permutation")
        assert prof is not None
        assert sess.stats == {"hits": 1, "misses": 1}  # bypass counts neither

    def test_queries_share_one_labeling(self):
        sess = Session("random", scale="tiny", seed=2)
        labels = sess.components()
        sizes = sess.component_sizes()
        assert sum(sizes.values()) == sess.graph.num_vertices
        assert sess.num_components() == len(sizes)
        u, v = 0, int(np.argmax(labels == labels[0]))
        assert sess.connected(u, v) is True
        many = sess.connected(np.array([0, 1]), np.array([0, 1]))
        assert many.tolist() == [True, True]
        # All of the above resolved against one memoized run.
        assert sess.stats["misses"] == 1


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


class TestInflightCoalescing:
    """The per-key in-flight table must be cleared on EVERY exit path.

    Regression tests for a leak where the pooled-workspace claim ran
    after the in-flight registration but outside the try/finally: a
    claim failure left the key's event in ``_inflight`` forever, and
    every later caller of the same key deadlocked waiting on it.
    """

    def test_failed_claim_clears_inflight_entry(self):
        sess = Session("random", scale="tiny", seed=2)

        def exploding_claim():
            raise RuntimeError("pool boom")

        original = sess._claim_pool
        sess._claim_pool = exploding_claim
        try:
            with pytest.raises(RuntimeError, match="pool boom"):
                sess.run()
        finally:
            sess._claim_pool = original
        # Pre-fix this assertion fails (and the run() below would then
        # deadlock on the leaked event — assert first, run second).
        assert sess._inflight == {}
        prof = sess.run()
        assert prof.tracker.total_work() > 0.0
        assert sess.stats == {"hits": 0, "misses": 1}

    def test_waiter_recovers_when_first_runner_fails(self, monkeypatch):
        """Two threads, same key: the first fails, the second computes."""
        import repro.runtime.session as session_mod

        sess = Session("random", scale="tiny", seed=2)
        real = session_mod.execute_profiled
        first_entered = threading.Event()
        release_first = threading.Event()
        attempts = []

        def flaky(*args, **kwargs):
            attempts.append(threading.get_ident())
            if len(attempts) == 1:
                first_entered.set()
                assert release_first.wait(10)
                raise RuntimeError("first run dies")
            return real(*args, **kwargs)

        monkeypatch.setattr(session_mod, "execute_profiled", flaky)
        errors, profiles = [], []

        def owner():
            try:
                sess.run()
            except RuntimeError as exc:
                errors.append(exc)

        def waiter():
            profiles.append(sess.run())

        t_owner = threading.Thread(target=owner)
        t_owner.start()
        assert first_entered.wait(10)  # owner holds the in-flight entry
        t_waiter = threading.Thread(target=waiter)
        t_waiter.start()
        # Give the waiter a moment to park on the in-flight event, then
        # let the owner fail; the waiter must wake, become the next
        # owner, and compute the labeling itself.
        deadline = time.monotonic() + 10
        while not sess._inflight and time.monotonic() < deadline:
            time.sleep(0.001)
        release_first.set()
        t_owner.join(10)
        t_waiter.join(10)
        assert not t_owner.is_alive() and not t_waiter.is_alive()
        assert len(errors) == 1 and "first run dies" in str(errors[0])
        assert len(profiles) == 1
        assert profiles[0].tracker.total_work() > 0.0
        assert sess._inflight == {}
        # The waiter's successful compute entered the memo.
        assert sess.run() is profiles[0]


class TestContextDiscipline:
    def test_activate_restores_on_exception(self):
        before = current_context()
        ctx = before.child(tracker=CostTracker())
        with pytest.raises(RuntimeError):
            with ctx.activate():
                assert current_context() is ctx
                raise RuntimeError("boom")
        assert current_context() is before

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
