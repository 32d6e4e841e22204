"""The runtime layer: ExecutionContext isolation, Session memoization.

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
from repro.graphs.generators import line_graph
from repro.pram.cost import CostTracker, tracking
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


class TestConnectedRange:
    """``connected`` rejects ids outside ``[0, n)`` and non-integer ids.

    The path 0-1-2-3 is one component, so a wrapped ``-1`` (vertex 3)
    would silently answer ``True``.
    """

    @pytest.mark.parametrize("bad", [-1, 4, 0.5])
    def test_scalar_id_out_of_range(self, bad):
        sess = Session(line_graph(4), graph_name="line4")
        assert sess.connected(3, 0) is True
        with pytest.raises(ParameterError):
            sess.connected(bad, 0)
        with pytest.raises(ParameterError):
            sess.connected(0, bad)

    @pytest.mark.parametrize("bad", [-1, 4, 0.5])
    def test_array_id_out_of_range(self, bad):
        sess = Session(line_graph(4), graph_name="line4")
        many = sess.connected(np.array([3, 1]), np.array([0, 2]))
        assert many.tolist() == [True, True]
        with pytest.raises(ParameterError):
            sess.connected(np.array([1, bad]), np.array([0, 0]))
        with pytest.raises(ParameterError):
            sess.connected(np.array([0, 0]), np.array([bad, 1]))


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


class TestSameKeyRuns:
    """Runs on one memo key: failures memoize nothing, races agree."""

    def test_failed_run_memoizes_nothing(self, monkeypatch):
        import repro.runtime.session as session_mod

        sess = Session("random", scale="tiny", seed=2)

        def exploding_run(*args, **kwargs):
            raise RuntimeError("run boom")

        with monkeypatch.context() as patch:
            patch.setattr(session_mod, "execute_profiled", exploding_run)
            with pytest.raises(RuntimeError, match="run boom"):
                sess.run()
        assert sess.stats == {"hits": 0, "misses": 0}
        prof = sess.run()
        assert prof.tracker.total_work() > 0.0
        assert sess.stats == {"hits": 0, "misses": 1}

    def test_concurrent_same_key_runs_agree(self):
        """4 threads, one key: equal labels and charges, then a memo hit."""
        sess = Session("random", scale="tiny", seed=2)
        barrier = threading.Barrier(4)

        def worker(_):
            barrier.wait()
            return sess.run()

        with ThreadPoolExecutor(max_workers=4) as pool:
            profiles = list(pool.map(worker, range(4)))
        first = profiles[0]
        for prof in profiles[1:]:
            assert np.array_equal(prof.result.labels, first.result.labels)
            assert prof.tracker.snapshot() == first.tracker.snapshot()
        hits = sess.stats["hits"]
        later = sess.run()
        assert any(later is prof for prof in profiles)
        assert sess.stats["hits"] == hits + 1


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
