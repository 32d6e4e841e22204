"""Backend parity properties: fast == reference, element for element.

The golden-fixture suite (``tests/test_engine_parity.py``) pins both
backends against recorded traces; this module attacks the same
contract from below with property-based tests on the individual fast
paths:

* the O(n) reverse-order winner scatter resolves every CAS race to
  exactly the winners the sort-based ``np.unique`` path picks;
* the fused stable argsort is the same permutation as the reference
  per-digit loop;
* arena-backed frontier expansion matches the allocating expansion;
* a :class:`~repro.engine.workspace.Workspace` reused across rounds
  and across runs never leaks state between them;
* the backend registry itself (resolve / scope / default) behaves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity import decomp_cc, hybrid_bfs_cc
from repro.engine.backend import (
    BACKENDS,
    FAST,
    REFERENCE,
    current_backend,
    resolve_backend,
    use_backend,
)
from repro.engine.workspace import NULL_WORKSPACE, Workspace, make_workspace
from repro.errors import ParameterError
from repro.graphs import random_gnm, random_kregular, rmat
from repro.primitives.atomics import first_winner
from repro.primitives.hashing import _table_size
from repro.primitives.sort import radix_argsort

dest_streams = st.lists(
    st.integers(min_value=0, max_value=60), min_size=0, max_size=300
)


# -- first_winner: scatter path == sort path ------------------------------


@given(dest_streams)
def test_first_winner_scatter_matches_sort(xs):
    idx = np.array(xs, dtype=np.int64)
    ws = Workspace(64)
    ref_pos, ref_dst = first_winner(idx, workspace=None)
    fast_pos, fast_dst = first_winner(idx, workspace=ws)
    assert np.array_equal(ref_pos, fast_pos)
    assert np.array_equal(ref_dst, fast_dst)
    # the winner schedule really is "first occurrence per destination"
    for p, d in zip(fast_pos.tolist(), fast_dst.tolist()):
        assert xs[p] == d
        assert xs.index(d) == p


def test_first_winner_all_colliding():
    idx = np.full(1000, 7, dtype=np.int64)
    pos, dst = first_winner(idx, workspace=Workspace(8))
    assert pos.tolist() == [0]
    assert dst.tolist() == [7]


def test_first_winner_empty_stream():
    idx = np.zeros(0, dtype=np.int64)
    pos, dst = first_winner(idx, workspace=Workspace(8))
    assert pos.size == 0 and dst.size == 0


@given(st.lists(dest_streams, min_size=2, max_size=5))
def test_first_winner_workspace_reuse_no_leak(streams):
    """One arena across many rounds == a fresh arena per round."""
    ws = Workspace(64)
    for xs in streams:
        idx = np.array(xs, dtype=np.int64)
        reused = first_winner(idx, workspace=ws)
        fresh = first_winner(idx, workspace=Workspace(64))
        assert np.array_equal(reused[0], fresh[0])
        assert np.array_equal(reused[1], fresh[1])


# -- radix_argsort: fused path == per-digit loop --------------------------


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=300))
def test_radix_argsort_backend_parity(xs):
    keys = np.array(xs, dtype=np.int64)
    with use_backend("reference"):
        ref = radix_argsort(keys)
    with use_backend("fast"):
        fast = radix_argsort(keys)
    assert np.array_equal(ref, fast)


# -- expand: arena views == fresh allocations -----------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=99),
        min_size=0,
        max_size=100,
        unique=True,
    )
)
def test_expand_workspace_parity(frontier):
    graph = random_kregular(100, 4, seed=7)
    front = np.sort(np.array(frontier, dtype=np.int64))
    ref_src, ref_dst = graph.expand(front, workspace=None)
    ws = Workspace(100)
    fast_src, fast_dst = graph.expand(front, workspace=ws)
    assert np.array_equal(ref_src, fast_src)
    assert np.array_equal(ref_dst, fast_dst)


def test_expand_workspace_reuse_across_rounds():
    """Shrinking then growing frontiers reuse buffers without residue."""
    graph = random_kregular(64, 5, seed=3)
    ws = Workspace(64)
    for front in (
        np.arange(64, dtype=np.int64),
        np.arange(0, 64, 7, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.arange(32, dtype=np.int64),
    ):
        ref = graph.expand(front, workspace=None)
        fast = graph.expand(front, workspace=ws)
        assert np.array_equal(ref[0], fast[0])
        assert np.array_equal(ref[1], fast[1])


# -- whole runs: back-to-back fast runs == fresh reference runs -----------


def _graphs():
    return [
        ("kreg", random_kregular(400, 3, seed=1)),
        ("gnm", random_gnm(300, 120, seed=2)),  # many components
        ("rmat", rmat(8, 700, seed=3)),
    ]


@pytest.mark.parametrize(
    "algo",
    [
        pytest.param(lambda g: decomp_cc(g, seed=5), id="decomp_cc"),
        pytest.param(hybrid_bfs_cc, id="hybrid_bfs_cc"),
    ],
)
def test_back_to_back_fast_runs_match_reference(algo):
    """Run A then B under one process's fast backend; nothing carries over."""
    fast_labels = {}
    with use_backend("fast"):
        for name, graph in _graphs():
            fast_labels[name] = algo(graph).labels
    for name, graph in _graphs():
        with use_backend("reference"):
            ref = algo(graph).labels
        assert np.array_equal(ref, fast_labels[name]), name


# -- hash table sizing (the bit_length fix) -------------------------------


@pytest.mark.parametrize(
    "n,size",
    [(0, 16), (1, 16), (8, 16), (9, 32), (16, 32), (17, 64), (1 << 20, 1 << 21)],
)
def test_table_size_values(n, size):
    assert _table_size(n) == size


@given(st.integers(min_value=0, max_value=1 << 30))
def test_table_size_invariants(n):
    size = _table_size(n)
    assert size >= 16 and size & (size - 1) == 0  # power of two
    assert size >= 2 * n  # load factor <= 0.5
    if n > 8:
        assert size < 4 * n  # and never more than one doubling above


# -- the backend registry itself ------------------------------------------


def test_backend_registry_and_resolution():
    assert set(BACKENDS) == {"reference", "fast"}
    assert FAST.use_workspace and FAST.fused_sort and FAST.trusted_contraction
    assert not (
        REFERENCE.use_workspace
        or REFERENCE.fused_sort
        or REFERENCE.trusted_contraction
    )
    assert resolve_backend("fast") is FAST
    assert resolve_backend(REFERENCE) is REFERENCE
    assert resolve_backend(None) is current_backend()
    with pytest.raises(ParameterError):
        resolve_backend("turbo")


def test_use_backend_scopes_and_nests():
    outer = current_backend()
    with use_backend("reference"):
        assert current_backend() is REFERENCE
        with use_backend("fast"):
            assert current_backend() is FAST
        assert current_backend() is REFERENCE
    assert current_backend() is outer


def test_make_workspace_follows_backend_flags():
    assert isinstance(make_workspace(FAST, 10), Workspace)
    assert make_workspace(REFERENCE, 10) is NULL_WORKSPACE
    assert not NULL_WORKSPACE.trusted and not NULL_WORKSPACE.scatter_winner
    ws = make_workspace(FAST, 10)
    assert ws.trusted and ws.scatter_winner
