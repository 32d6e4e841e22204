"""Golden parity: the engine rewrite is seed-for-seed the old code.

``tests/golden/decomp_parity.json`` was captured at the last pre-engine
commit (per-variant hand-rolled round loops); these tests replay every
pinned run — all three paper decomposition variants and the whole BFS
family over the graph zoo — through the current engine-backed
implementations and require bit-identical labelings, inter-edge lists,
round statistics, and (phase, kind) cost profiles.

One intentional exception (see the generator's docstring): the hybrid's
dense rounds now charge the uniform ``log2(round_edges + 1)`` barrier
depth via ``end_round`` instead of the old ``log2(n_vertices + 1)``, so
the ``bfsDense`` *depth* bucket (and therefore ``total_depth``) of the
10 fixture entries with dense rounds is compared within a small
tolerance rather than exactly.  All work buckets stay exact everywhere.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.decomp import DECOMP_VARIANTS
from repro.engine.backend import resolve_backend
from repro.runtime.context import current_context
from repro.runtime.session import Session

from tests.conftest import _zoo, run_on_threads
from tests.golden.generate_decomp_parity import capture_bfs, capture_one

#: Every fixture entry must replay identically under every execution
#: backend — the parity contract of ``repro.engine.backend`` — and
#: independently of host concurrency: ``parallel-wN`` replays the entry
#: on N threads at once (fast backend, one context per thread) and every
#: thread must reproduce the capture.  ``threads == 0`` replays on the
#: calling thread.
EXECUTIONS = [
    pytest.param(("reference", 0), id="reference"),
    pytest.param(("fast", 0), id="fast"),
    pytest.param(("fast", 1), id="parallel-w1"),
    pytest.param(("fast", 2), id="parallel-w2"),
    pytest.param(("fast", 4), id="parallel-w4"),
]


def _activate(backend):
    return current_context().child(backend=resolve_backend(backend)).activate()


def _replays(threads, fn):
    """*fn*'s results: one on the calling thread, or one per thread."""
    return [fn()] if threads == 0 else run_on_threads(fn, threads)


FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "decomp_parity.json")

#: Absolute slack allowed per dense round on the intentionally changed
#: barrier-depth charge: each such round now contributes
#: ``log2(round_edges + 1)`` instead of ``log2(n_vertices + 1)``, a
#: difference of two log factors (observed max 3.0 units on the zoo).
DENSE_DEPTH_SLACK_PER_ROUND = 4.0

with open(FIXTURE) as _f:
    _GOLD = json.load(_f)

_DECOMP_KEYS = sorted(k for k in _GOLD if not k.startswith("bfs/"))
_BFS_KEYS = sorted(k for k in _GOLD if k.startswith("bfs/"))


@pytest.fixture(scope="module")
def zoo():
    return _zoo()


def _assert_decomp_entry(want, got):
    """One fixture entry matches one replay: exact outputs, slacked dense depth."""
    slack = DENSE_DEPTH_SLACK_PER_ROUND * len(want["dense_rounds"])

    # Outputs and round statistics: exact.
    for field in (
        "labels_sha256",
        "inter_sha256",
        "orig_sha256",
        "num_inter_directed",
        "num_components",
        "num_rounds",
        "frontier_sizes",
        "edges_inspected",
        "dense_rounds",
        "sync_count",
        "total_work",
        "work",
    ):
        assert got[field] == want[field], field

    # Depth buckets: exact except the dense rounds' barrier packing.
    for bucket in set(want["depth"]) | set(got["depth"]):
        w = want["depth"].get(bucket, 0.0)
        g = got["depth"].get(bucket, 0.0)
        if bucket == "bfsDense|scan":
            assert abs(w - g) <= slack, (bucket, w, g)
        else:
            assert g == w, (bucket, w, g)
    assert abs(want["total_depth"] - got["total_depth"]) <= slack

    # Entries without dense rounds must not even use the tolerance.
    if not want["dense_rounds"]:
        assert got["depth"] == want["depth"]
        assert got["total_depth"] == want["total_depth"]


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("key", _DECOMP_KEYS)
def test_decomp_matches_pre_engine_capture(key, execution, zoo):
    backend, threads = execution
    gname, variant, beta_s, seed_s = key.split("/")
    beta = float(beta_s.split("=")[1])
    seed = int(seed_s.split("=")[1])

    def replay():
        with _activate(backend):
            return capture_one(DECOMP_VARIANTS[variant], zoo[gname], beta, seed)

    for got in _replays(threads, replay):
        _assert_decomp_entry(_GOLD[key], got)


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("key", _BFS_KEYS)
def test_bfs_family_matches_pre_engine_capture(key, execution, zoo):
    backend, threads = execution
    gname = key.split("/", 1)[1]
    want = _GOLD[key]

    def replay():
        with _activate(backend):
            return capture_bfs(zoo[gname])

    for got in _replays(threads, replay):
        for algo in want:
            assert got[algo] == want[algo], algo


# -- the same 116 entries, driven through the Session runtime path --------
#
# The runtime refactor's acceptance bar: a Session-bound context (its
# backend, whose one shared workspace serves every replay) must
# reproduce each golden capture byte-for-byte.  One session per (graph,
# backend) lives for the whole module, so later parametrized replays
# run through the same session as earlier ones.  The ``parallel-wN``
# cases activate the *same* session on N threads at once.


@pytest.fixture(scope="module")
def session_for(zoo):
    sessions = {}

    def get(gname, backend):
        key = (gname, backend)
        if key not in sessions:
            sessions[key] = Session(zoo[gname], graph_name=gname, backend=backend)
        return sessions[key]

    return get


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("key", _DECOMP_KEYS)
def test_decomp_parity_via_session(key, execution, zoo, session_for):
    backend, threads = execution
    gname, variant, beta_s, seed_s = key.split("/")
    beta = float(beta_s.split("=")[1])
    seed = int(seed_s.split("=")[1])
    session = session_for(gname, backend)

    def replay():
        with session.activate():
            return capture_one(DECOMP_VARIANTS[variant], zoo[gname], beta, seed)

    for got in _replays(threads, replay):
        _assert_decomp_entry(_GOLD[key], got)


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("key", _BFS_KEYS)
def test_bfs_family_parity_via_session(key, execution, zoo, session_for):
    backend, threads = execution
    gname = key.split("/", 1)[1]
    want = _GOLD[key]
    session = session_for(gname, backend)

    def replay():
        with session.activate():
            return capture_bfs(zoo[gname])

    for got in _replays(threads, replay):
        for algo in want:
            assert got[algo] == want[algo], algo
