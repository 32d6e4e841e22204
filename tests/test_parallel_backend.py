"""The fast backend under concurrent host threads.

Every backend runs a labeling on the calling thread; the paper's thread
scaling lives in the cost model.  What *can* run in parallel is the
host: service-style callers label graphs from several threads at once,
each with its own execution context, all through the backend's one
shared, stateless workspace.  The golden suite
(tests/test_engine_parity.py) replays all 116 fixtures on 1, 2 and 4
concurrent threads; this module covers the pieces underneath:

* every op of the shared fast workspace, driven from ``workers``
  threads at once, equals its serial spec across sizes from empty to
  a thousand;
* its scatters (``winner_scatter``, ``minimum_scatter``) keep the
  serial priority-CRCW schedules call after call on every thread,
  with four threads racing distinct inputs through it at once;
* concurrent runs of different decompositions on different graphs
  match their serial labelings and tracker snapshots, concurrent
  end-to-end runs match the serial labeling, and sanitized concurrent
  runs are race-free with per-thread sanitizer accounting;
* concurrent ``Session.run`` callers compute each key once.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.decomp import decomp_arb, decomp_min
from repro.engine.backend import BACKENDS, resolve_backend
from repro.engine.workspace import FAST_WORKSPACE, NULL_WORKSPACE
from repro.experiments.harness import profile_run
from repro.graphs import empty_graph, line_graph, random_gnm
from repro.pram.cost import CostTracker
from repro.pram.sanitizer import sanitizing
from repro.primitives.atomics import write_min
from repro.runtime.context import current_context
from repro.runtime.session import Session

from tests.conftest import run_on_threads

#: Concurrent thread counts exercised everywhere: one thread, an even
#: pair, an odd count, and more threads than most CI machines have cores.
WORKER_COUNTS = (1, 2, 3, 4)

#: Sizes from empty and single through just below, at and above a power
#: of two to a ragged total and more.
CHUNK = 64
SIZES = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 17, 1000)


def _first_occurrences(idx):
    """The serial CAS schedule: first position per distinct destination."""
    dests, positions = np.unique(idx, return_index=True)
    return positions, dests


# ------------------------------------------------- data-parallel op parity


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("size", SIZES)
def test_elementwise_ops_match_reference(size, workers):
    rng = np.random.default_rng(size * 131 + workers)
    a = rng.integers(0, 50, size=size, dtype=np.int64)
    b = rng.integers(0, 50, size=size, dtype=np.int64)
    arr = rng.integers(0, 1 << 40, size=max(size, 1), dtype=np.int64)
    idx = rng.integers(0, max(size, 1), size=size, dtype=np.int64)
    mask = rng.random(size) < 0.5

    def ops(ws):
        return [
            ws.take(arr, idx),
            ws.take(mask, idx[idx < size]),
            ws.compress(mask, a),
            ws.compress(~mask, b),
        ]

    want = ops(NULL_WORKSPACE)
    # One fast instance shared by every thread.
    for got in run_on_threads(lambda: ops(FAST_WORKSPACE), workers):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


# ------------------------------------------------------- shared scatters


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("size", [s for s in SIZES if s > 0])
def test_winner_scatter_matches_serial_schedule(size, workers):
    rng = np.random.default_rng(size * 7 + workers)
    idx = rng.integers(0, max(size // 2, 1), size=size, dtype=np.int64)
    want_pos, want_dst = _first_occurrences(idx)
    for got_pos, got_dst in run_on_threads(
        lambda: FAST_WORKSPACE.winner_scatter(idx), workers
    ):
        np.testing.assert_array_equal(got_dst, want_dst)
        np.testing.assert_array_equal(got_pos, want_pos)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_winner_scatter_invariants_survive_reuse(workers):
    """Round after round on the shared instance, every thread agrees."""
    rng = np.random.default_rng(9)
    rounds = [
        rng.integers(0, 150, size=3 * CHUNK + 11 + r, dtype=np.int64)
        for r in range(4)
    ]

    def reuse():
        return [FAST_WORKSPACE.winner_scatter(idx) for idx in rounds]

    for per_round in run_on_threads(reuse, workers):
        for idx, (got_pos, got_dst) in zip(rounds, per_round):
            want_pos, want_dst = _first_occurrences(idx)
            np.testing.assert_array_equal(got_pos, want_pos)
            np.testing.assert_array_equal(got_dst, want_dst)


def test_shared_workspace_stress_with_distinct_inputs():
    """Four threads, each its own races, through the one instance.

    The races are large enough that NumPy releases the interpreter lock
    inside them, and a short switch interval interleaves the threads
    between calls: any scratch state kept on the shared workspace from
    one NumPy call to the next would leak one thread's destinations
    into another's winners.
    """
    streams = [
        [
            np.random.default_rng((t, r)).integers(0, 4000 + 1000 * t, size=3000)
            for r in range(20)
        ]
        for t in range(4)
    ]
    wants = [[_first_occurrences(idx) for idx in mine] for mine in streams]
    slots = iter(range(len(streams)))
    lock = threading.Lock()

    def hammer():
        with lock:
            t = next(slots)
        bad = 0
        for _ in range(25):
            for idx, (want_pos, want_dst) in zip(streams[t], wants[t]):
                pos, dst = FAST_WORKSPACE.winner_scatter(idx)
                bad += not (
                    np.array_equal(pos, want_pos) and np.array_equal(dst, want_dst)
                )
        return bad

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_on_threads(hammer, len(streams)) == [0] * len(streams)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("size", SIZES)
def test_minimum_scatter_matches_minimum_at(size, workers):
    rng = np.random.default_rng(size * 13 + workers)
    n = 120
    batches = []
    for _ in range(3):  # reuse across rounds
        idx = rng.integers(0, n, size=size, dtype=np.int64)
        values = rng.integers(0, 1 << 30, size=size, dtype=np.int64)
        base = rng.integers(0, 1 << 30, size=n, dtype=np.int64)
        batches.append((idx, values, base))

    def scatter():
        out = []
        for idx, values, base in batches:
            got = base.copy()
            FAST_WORKSPACE.minimum_scatter(got, idx, values)
            out.append(got)
        return out

    for per_round in run_on_threads(scatter, workers):
        for (idx, values, base), got in zip(batches, per_round):
            want = base.copy()
            np.minimum.at(want, idx, values)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_write_min_routes_through_workspace(workers):
    rng = np.random.default_rng(workers)
    size = 4 * CHUNK + 5
    idx = rng.integers(0, 90, size=size, dtype=np.int64)
    values = rng.integers(0, 1 << 20, size=size, dtype=np.int64)
    base = rng.integers(0, 1 << 20, size=90, dtype=np.int64)
    want = base.copy()
    np.minimum.at(want, idx, values)

    def run():
        got = base.copy()
        write_min(got, idx, values, workspace=FAST_WORKSPACE)
        return got

    for got in run_on_threads(run, workers):
        np.testing.assert_array_equal(got, want)


# ------------------------------------------- concurrent decompositions


def test_one_shared_fast_workspace_serves_concurrent_runs():
    """Decomp-Arb and Decomp-Min at once, on different graphs.

    Each job runs on two threads, four in all (more than the cores of
    most CI machines), with a short switch interval so the threads
    interleave inside the kernels; every run must equal its serial run.
    """
    # Big enough that NumPy releases the interpreter lock mid-round.
    jobs = [
        (decomp_arb, random_gnm(20_000, 60_000, seed=6)),
        (decomp_min, line_graph(20_000, seed=2)),
    ] * 2

    def run(job):
        decompose, graph = job
        ctx = current_context().child(
            backend=resolve_backend("fast"), tracker=CostTracker()
        )
        with ctx.activate():
            assert current_context().backend.workspace is FAST_WORKSPACE
            dec = decompose(graph, 0.2, seed=3)
        return dec.labels, dec.inter_src, ctx.tracker.snapshot()

    serial = [run(job) for job in jobs]
    slots = iter(range(len(jobs)))
    lock = threading.Lock()

    def claim():
        with lock:
            slot = next(slots)
        # Back-to-back runs keep every thread busy while the others are.
        return slot, [run(jobs[slot]) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_on_threads(claim, len(jobs))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(slot for slot, _ in results) == list(range(len(jobs)))
    for slot, runs in results:
        want_labels, want_inter, want_snapshot = serial[slot]
        for labels, inter_src, snapshot in runs:
            np.testing.assert_array_equal(labels, want_labels)
            np.testing.assert_array_equal(inter_src, want_inter)
            assert snapshot == want_snapshot


# --------------------------------------------------- end-to-end edge cases


def _labels(graph, backend, **kwargs):
    ctx = current_context().child(backend=resolve_backend(backend))
    with ctx.activate():
        profile = profile_run("decomp-arb-CC", graph, seed=1, **kwargs)
    return profile.result.labels


@pytest.mark.parametrize("workers", (2, 4))
@pytest.mark.parametrize(
    "graph_factory",
    [
        lambda: empty_graph(0),           # empty frontier from round zero
        lambda: empty_graph(1),           # single vertex
        lambda: line_graph(2),            # frontier of one edge
        lambda: line_graph(5 * CHUNK + 17),  # long, ragged-size path
        lambda: random_gnm(3 * CHUNK + 7, 900, seed=6),
    ],
    ids=["empty", "single-vertex", "sub-chunk", "ragged-line", "gnm"],
)
def test_edge_case_graphs_match_fast(graph_factory, workers):
    graph = graph_factory()
    want = _labels(graph, "fast")
    for got in run_on_threads(lambda: _labels(graph, "fast"), workers):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("workers", (2, 4))
def test_sanitized_parallel_run_is_race_free(workers):
    graph = random_gnm(3 * CHUNK + 7, 900, seed=6)

    def sanitized():
        ctx = current_context().child(backend=resolve_backend("fast"))
        with ctx.activate():
            with sanitizing() as sanitizer:
                profile_run("decomp-min-CC", graph, seed=2, beta=0.2)
        return sanitizer

    (serial,) = run_on_threads(sanitized, 1)
    sanitizers = run_on_threads(sanitized, workers)
    assert len({id(s) for s in sanitizers}) == workers
    for sanitizer in sanitizers:
        assert "0 race(s)" in sanitizer.summary()
        assert sanitizer.cas_checked > 0
        # Each thread's seams reached only its own sanitizer: the
        # accounting equals a lone run's, nothing leaked across threads.
        assert sanitizer.summary() == serial.summary()


# -------------------------------------------------- session concurrency


def test_concurrent_session_runs_agree_per_key():
    """Concurrent runs over shared keys agree, and every key ends memoized.

    Callers that miss on one key at the same time may each compute it;
    they must produce the same labeling, and once any of them finishes
    the key is a memo hit.
    """
    graph = random_gnm(200, 400, seed=8)
    session = Session(graph, graph_name="gnm", backend="fast")
    seeds = [1, 2, 3, 4]
    results = {}
    errors = []

    def work(tid):
        try:
            for seed in seeds:  # every thread asks for every key
                profile = session.run("decomp-arb-CC", seed=seed, beta=0.25)
                results[(tid, seed)] = profile.result.labels
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # Every call is counted once, and every key was computed at least once.
    assert session.hits + session.misses == len(seeds) * 4
    assert session.misses >= len(seeds)
    for seed in seeds:
        for tid in range(1, 4):
            np.testing.assert_array_equal(
                results[(tid, seed)], results[(0, seed)]
            )
    hits = session.hits
    for seed in seeds:
        session.run("decomp-arb-CC", seed=seed, beta=0.25)
    assert session.hits == hits + len(seeds)


# --------------------------------------------------------------- CLI seam


def test_cli_backend_errors_enumerate_all_backends(capsys):
    with pytest.raises(SystemExit):
        cli_main(["--backend", "quantum", "list"])
    err = capsys.readouterr().err
    for name in BACKENDS:
        assert name in err
