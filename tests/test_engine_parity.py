"""Golden parity: the engine replays every pinned run exactly.

``tests/golden/decomp_parity.json`` was first captured at the last
pre-engine commit (per-variant hand-rolled round loops) and regenerated
only for the intentional cost-model changes its generator's docstring
lists; these tests replay every pinned run — all three paper
decomposition variants and the whole BFS family over the graph zoo —
through the current engine-backed implementations and require
bit-identical labelings, inter-edge lists, round statistics, and
(phase, kind) cost profiles, work and depth alike.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.decomp import DECOMP_VARIANTS
from repro.engine.backend import resolve_backend
from repro.runtime.context import current_context

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

with open(FIXTURE) as _f:
    _GOLD = json.load(_f)

_DECOMP_KEYS = sorted(k for k in _GOLD if not k.startswith("bfs/"))
_BFS_KEYS = sorted(k for k in _GOLD if k.startswith("bfs/"))


@pytest.fixture(scope="module")
def zoo():
    return _zoo()


def _assert_decomp_entry(want, got):
    """One fixture entry matches one replay exactly."""
    for field in want:
        assert got[field] == want[field], field


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


# -- the same 116 entries, driven through a seeded runtime context -------
#
# The runtime refactor's acceptance bar: a context derived with
# ``child(backend=..., seed=...)`` — the way every profiled run binds
# its backend, whose one shared workspace serves every replay — must
# reproduce each golden capture byte-for-byte.  The ``parallel-wN``
# cases activate such a context on N threads at once.


def _activate_seeded(backend, seed):
    return (
        current_context()
        .child(backend=resolve_backend(backend), seed=seed)
        .activate()
    )


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("key", _DECOMP_KEYS)
def test_decomp_parity_via_session(key, execution, zoo):
    backend, threads = execution
    gname, variant, beta_s, seed_s = key.split("/")
    beta = float(beta_s.split("=")[1])
    seed = int(seed_s.split("=")[1])

    def replay():
        with _activate_seeded(backend, seed):
            return capture_one(DECOMP_VARIANTS[variant], zoo[gname], beta, seed)

    for got in _replays(threads, replay):
        _assert_decomp_entry(_GOLD[key], got)


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("key", _BFS_KEYS)
def test_bfs_family_parity_via_session(key, execution, zoo):
    backend, threads = execution
    gname = key.split("/", 1)[1]
    want = _GOLD[key]

    def replay():
        with _activate_seeded(backend, 1):
            return capture_bfs(zoo[gname])

    for got in _replays(threads, replay):
        for algo in want:
            assert got[algo] == want[algo], algo
