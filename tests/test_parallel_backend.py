"""The fast backend under concurrent host threads.

Every backend runs a labeling on the calling thread; the paper's thread
scaling lives in the cost model.  What *can* run in parallel is the
host: service-style callers label graphs from several threads at once,
each with its own execution context and workspace arena.  The golden
suite (tests/test_engine_parity.py) replays all 116 fixtures on 1, 2
and 4 concurrent threads; this module covers the pieces underneath:

* every ``Workspace`` op, driven from ``workers`` threads at once (one
  arena each), equals its serial spec across sizes from empty to many
  buffer growths;
* the arena scatters (``winner_scatter``, ``minimum_scatter``) keep
  the serial priority-CRCW schedules and restore their scratch
  invariants, so arena reuse across rounds stays correct on every
  thread;
* concurrent end-to-end runs match the serial labeling, and sanitized
  concurrent runs are race-free with per-thread sanitizer accounting;
* concurrent ``Session.run`` callers compute each key once and never
  corrupt the pool.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.engine.backend import BACKENDS, resolve_backend
from repro.engine.workspace import NULL_WORKSPACE, Workspace
from repro.experiments.harness import profile_run
from repro.graphs import empty_graph, line_graph, random_gnm
from repro.pram.sanitizer import sanitizing
from repro.primitives.atomics import write_min
from repro.runtime.context import current_context
from repro.runtime.session import Session

from tests.conftest import run_on_threads

#: Concurrent thread counts exercised everywhere: one thread, an even
#: pair, an odd count, and more threads than most CI machines have cores.
WORKER_COUNTS = (1, 2, 3, 4)

#: Sizes straddling the arena's growth steps: empty, single, just below,
#: at and above a power of two, a ragged multi-growth total, and more.
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
    keys = rng.integers(0, 1 << 50, size=size, dtype=np.int64)

    def ops():
        ws = Workspace(256)  # one arena per thread
        return [
            ws.take(arr, idx, "t").copy(),
            ws.compress(mask, a, "c").copy(),
            ws.equal(a, b, "e").copy(),
            ws.equal(a, np.int64(7), "es").copy(),
            ws.not_equal(a, b, "n").copy(),
            ws.logical_not(mask, "l").copy(),
            ws.sub(a, b, "s").copy(),
            ws.as_float(a, "f").copy(),
            ws.hash_slots(keys, np.uint64(0x9E37), np.uint64(1023), "h"),
        ]

    want = [
        arr[idx],
        a[mask],
        a == b,
        a == 7,
        a != b,
        ~mask,
        a - b,
        a.astype(np.float64),
        NULL_WORKSPACE.hash_slots(keys, np.uint64(0x9E37), np.uint64(1023), "h"),
    ]
    for got in run_on_threads(ops, workers):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


# ------------------------------------------------------- arena scatters


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("size", [s for s in SIZES if s > 0])
def test_winner_scatter_matches_serial_schedule(size, workers):
    rng = np.random.default_rng(size * 7 + workers)
    idx = rng.integers(0, max(size // 2, 1), size=size, dtype=np.int64)
    want_pos, want_dst = _first_occurrences(idx)
    for got_pos, got_dst in run_on_threads(
        lambda: Workspace(256).winner_scatter(idx), workers
    ):
        np.testing.assert_array_equal(got_dst, want_dst)
        np.testing.assert_array_equal(got_pos, want_pos)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_winner_scatter_invariants_survive_reuse(workers):
    """The scratch mask must reset after each scatter, or round 2 lies."""
    rng = np.random.default_rng(9)
    rounds = [
        rng.integers(0, 150, size=3 * CHUNK + 11 + r, dtype=np.int64)
        for r in range(4)
    ]

    def reuse():
        ws = Workspace(256)
        return [ws.winner_scatter(idx) for idx in rounds]

    for per_round in run_on_threads(reuse, workers):
        for idx, (got_pos, got_dst) in zip(rounds, per_round):
            want_pos, want_dst = _first_occurrences(idx)
            np.testing.assert_array_equal(got_pos, want_pos)
            np.testing.assert_array_equal(got_dst, want_dst)


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
        ws = Workspace(256)
        out = []
        for idx, values, base in batches:
            got = base.copy()
            ws.minimum_scatter(got, idx, values)
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
        write_min(got, idx, values, workspace=Workspace(256))
        return got

    for got in run_on_threads(run, workers):
        np.testing.assert_array_equal(got, want)


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


def test_concurrent_session_runs_compute_each_key_once():
    """The narrowed memo lock: concurrent runs never double-compute."""
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
    # One computation per distinct key, everything else a memo hit.
    assert session.misses == len(seeds)
    assert session.hits == len(seeds) * 4 - len(seeds)
    for seed in seeds:
        for tid in range(1, 4):
            np.testing.assert_array_equal(
                results[(tid, seed)], results[(0, seed)]
            )


# --------------------------------------------------------------- CLI seam


def test_cli_backend_errors_enumerate_all_backends(capsys):
    with pytest.raises(SystemExit):
        cli_main(["--backend", "quantum", "list"])
    err = capsys.readouterr().err
    for name in BACKENDS:
        assert name in err
