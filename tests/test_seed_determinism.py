"""A run depends on its seed alone: no global RNG and no wall clock.

Every registered algorithm runs twice in one process with the same
seed, and NumPy's global generator is reseeded to a different value
before each run.  A kernel that drew from ``np.random``'s global state,
or let the host clock steer a decision, would make the two runs'
labels or (work, depth) charges differ.  The negative control plants
such a draw in :func:`repro.primitives.rand.hash_randoms` and shows
that the comparison sees it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.primitives.rand as rand
from repro.experiments.harness import profile_run
from repro.experiments.registry import ALGORITHMS
from repro.graphs import disjoint_union_edges, line_graph, rmat


@pytest.fixture(scope="module")
def graph():
    # Many components and a long path: shift order, tie-breaks and
    # contraction levels all shape the result.
    return disjoint_union_edges([rmat(8, 600, seed=4), line_graph(60)])


def _two_runs(algorithm, graph):
    """(labels, charges) of two same-seed runs, global RNG disturbed."""
    kwargs = {"seed": 3} if algorithm.startswith("decomp-") else {}
    saved = np.random.get_state()
    runs = []
    try:
        for global_seed in (11, 12):
            np.random.seed(global_seed)
            prof = profile_run(algorithm, graph, verify=False, **kwargs)
            tracker = prof.tracker
            runs.append(
                (prof.result.labels, tracker.snapshot(), tracker.sync_count)
            )
    finally:
        np.random.set_state(saved)
    return runs


def _same(first, second) -> bool:
    (labels_a, snap_a, sync_a), (labels_b, snap_b, sync_b) = first, second
    return np.array_equal(labels_a, labels_b) and (snap_a, sync_a) == (
        snap_b,
        sync_b,
    )


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_same_seed_same_run_whatever_the_global_rng(algorithm, graph):
    first, second = _two_runs(algorithm, graph)
    assert _same(first, second)


def test_a_global_rng_draw_is_caught(monkeypatch, graph):
    real = rand.hash_randoms

    def drifting(n, seed, stream=0):
        return real(n, seed + int(np.random.randint(1 << 20)), stream)

    monkeypatch.setattr(rand, "hash_randoms", drifting)
    first, second = _two_runs("decomp-arb-CC", graph)
    assert not _same(first, second)
