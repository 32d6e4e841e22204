"""Shared fixtures: the structural graph zoo and cost-tracking helpers."""

from __future__ import annotations

import threading

import pytest

from repro.graphs import (
    CSRGraph,
    binary_tree,
    clique,
    cycle_graph,
    disjoint_union_edges,
    empty_graph,
    grid3d,
    line_graph,
    orkut_like,
    random_gnm,
    random_kregular,
    rmat,
    star_graph,
)
from repro.pram import tracking


def _zoo() -> dict:
    """Small structurally diverse graphs covering the algorithms' edge cases."""
    return {
        "empty0": empty_graph(0),
        "empty5": empty_graph(5),
        "single": empty_graph(1),
        "one-edge": line_graph(2),
        "triangle": cycle_graph(3),
        "path": line_graph(50),
        "path-permuted": line_graph(50, seed=3),
        "cycle": cycle_graph(40),
        "star": star_graph(30),
        "clique": clique(10),
        "tree": binary_tree(5),
        "grid": grid3d(4),
        "random": random_kregular(200, 3, seed=1),
        "gnm-sparse": random_gnm(150, 60, seed=2),  # many components
        "gnm-dense": random_gnm(60, 500, seed=3),
        "rmat": rmat(8, 600, seed=4),
        "orkut": orkut_like(300, 8.0, seed=5),
        "union": disjoint_union_edges(
            [line_graph(20), clique(6), star_graph(8), empty_graph(3), cycle_graph(5)]
        ),
    }


_ZOO = _zoo()


@pytest.fixture(scope="session")
def zoo() -> dict:
    return _ZOO


def zoo_params():
    """Parametrization helper: (name, graph) pairs of the zoo."""
    return [pytest.param(g, id=name) for name, g in _ZOO.items()]


def zoo_nonempty_params():
    return [
        pytest.param(g, id=name)
        for name, g in _ZOO.items()
        if g.num_vertices > 0
    ]


def run_on_threads(fn, threads: int, timeout: float = 120.0) -> list:
    """Call *fn* on *threads* host threads released together.

    Returns the per-thread results in thread order and re-raises the
    first failure on the calling thread.  Every thread starts from an
    empty ``contextvars`` context, so it sees the process-root
    execution context — like a service worker thread would.
    """
    barrier = threading.Barrier(threads)
    results: list = [None] * threads
    errors: list = []

    def work(slot: int) -> None:
        try:
            barrier.wait(timeout)
            results[slot] = fn()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(timeout)
    assert not any(t.is_alive() for t in pool), "worker thread hung"
    if errors:
        raise errors[0]
    return results


@pytest.fixture()
def tracker():
    """A fresh active cost tracker for the duration of one test."""
    with tracking() as t:
        yield t


@pytest.fixture(scope="session")
def medium_random() -> CSRGraph:
    """A mid-sized random graph for statistical tests."""
    return random_kregular(5_000, 5, seed=11)
