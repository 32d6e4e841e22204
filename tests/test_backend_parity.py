"""Backend parity properties: fast == reference, element for element.

The golden-fixture suite (``tests/test_engine_parity.py``) pins both
backends against recorded traces; this module attacks the same
contract from below with property-based tests on the individual fast
paths:

* the O(n) reverse-order winner scatter resolves every CAS race to
  exactly the winners the sort-based ``np.unique`` path picks;
* the 16-bit digit passes are the same permutation as the reference
  per-digit loop, with the same charge, and contraction's
  representative index matches a stable argsort on either backend;
* arena-backed frontier expansion matches the allocating expansion,
  and each workspace primitive it is built from matches its
  reference, empty inputs included;
* the unstable start-permutation sort returns the reference's
  permutation and charge;
* a :class:`~repro.engine.workspace.Workspace` reused across rounds
  and across runs never leaks state between them;
* the backend registry itself (resolve / scope / default) behaves.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity import decomp_cc, hybrid_bfs_cc
from repro.decomp import contract, decomp_arb
from repro.engine.backend import (
    BACKENDS,
    FAST,
    REFERENCE,
    ExecutionBackend,
    current_backend,
    resolve_backend,
    use_backend,
)
from repro.engine.workspace import NULL_WORKSPACE, Workspace, make_workspace
from repro.errors import ParameterError
from repro.graphs import random_gnm, random_kregular, rmat
from repro.primitives.atomics import first_winner
from repro.pram.cost import tracking
from repro.primitives.hashing import _table_size
from repro.primitives.rand import random_permutation
from repro.primitives.sort import radix_argsort

dest_streams = st.lists(
    st.integers(min_value=0, max_value=60), min_size=0, max_size=300
)

#: Few contenders with ids far above their count: the sparse races the
#: workspace resolves by sorting instead of scanning a max-id mask.
sparse_streams = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=200_000, max_value=200_004),
        st.integers(min_value=0, max_value=2**40),
    ),
    min_size=1,
    max_size=40,
)


# -- first_winner: scatter path == sort path ------------------------------


@given(st.one_of(dest_streams, sparse_streams))
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


def test_sparse_race_skips_the_id_scan():
    # Two contenders at a high id must not grow a max-id-sized mask.
    ws = Workspace(8)
    pos, dst = first_winner(np.array([199_999, 3, 199_999]), workspace=ws)
    assert pos.tolist() == [1, 0]
    assert dst.tolist() == [3, 199_999]
    assert "winner#mask" not in ws._buffers


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


# -- radix_argsort: 16-bit digit passes == per-digit loop -----------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=2**62),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=1000,
    )
)
def test_radix_argsort_backend_parity(xs):
    keys = np.array(xs, dtype=np.int64)
    with use_backend("reference"), tracking() as ref_cost:
        ref = radix_argsort(keys)
    with use_backend("fast"), tracking() as fast_cost:
        fast = radix_argsort(keys)
    assert np.array_equal(ref, fast)
    assert ref_cost.snapshot() == fast_cost.snapshot()


# -- contract: radix representative index == stable argsort ---------------


@pytest.mark.parametrize("remove_duplicates", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contract_backend_parity(remove_duplicates, seed):
    # Decomp-Arb on a dense random graph leaves many parallel
    # inter-edges between the same two partitions: without the dedup
    # their keys tie, and only a stable sort keeps the representative.
    graph = random_gnm(400, 4000, seed=seed)
    dec = decomp_arb(graph, 0.4, seed=seed)
    out = {}
    for name in ("reference", "fast"):
        with use_backend(name), tracking() as cost:
            con = contract(dec, graph.num_vertices, remove_duplicates)
        out[name] = (con, cost.snapshot())
    (ref, ref_cost), (fast, fast_cost) = out["reference"], out["fast"]
    if not remove_duplicates:
        assert np.unique(ref.edge_pairs).size < ref.edge_pairs.size
    for field in ("edge_pairs", "rep_src", "rep_dst", "vertex_to_component"):
        assert np.array_equal(getattr(ref, field), getattr(fast, field)), field
    assert np.array_equal(ref.graph.offsets, fast.graph.offsets)
    assert np.array_equal(ref.graph.targets, fast.graph.targets)
    assert ref_cost == fast_cost


# -- random_permutation: unstable fast sort == per-digit loop -------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=2**40),
    st.sampled_from([1, 13, 99]),
)
def test_random_permutation_backend_parity(n, seed, stream):
    with use_backend("reference"), tracking() as ref_cost:
        ref = random_permutation(n, seed, stream=stream)
    with use_backend("fast"), tracking() as fast_cost:
        fast = random_permutation(n, seed, stream=stream)
    assert np.array_equal(ref, fast)
    assert fast.dtype == np.int64
    assert ref_cost.snapshot() == fast_cost.snapshot()


# -- workspace vocabulary: arena == reference, empty inputs included ------

counts_lists = st.lists(st.integers(min_value=0, max_value=5), max_size=40)


@given(counts_lists)
def test_exclusive_cumsum_parity(xs):
    a = np.array(xs, dtype=np.int64)
    ref = NULL_WORKSPACE.exclusive_cumsum(a, "k")
    fast = Workspace(8).exclusive_cumsum(a, "k")
    assert ref.shape == (a.size,)
    assert np.array_equal(ref, fast)


@given(counts_lists, st.integers(min_value=0, max_value=1000))
def test_ragged_positions_parity(xs, base):
    counts = np.array(xs, dtype=np.int64)
    starts = base + np.cumsum(counts) - counts
    total = int(counts.sum())
    ref = NULL_WORKSPACE.ragged_positions(starts, counts, total, "k")
    fast = Workspace(8).ragged_positions(starts, counts, total, "k")
    assert ref.shape == (total,)
    assert np.array_equal(ref, fast)


@given(counts_lists)
def test_repeat_parity(xs):
    counts = np.array(xs, dtype=np.int64)
    values = np.arange(counts.size, dtype=np.int64) * 3
    total = int(counts.sum())
    ref = NULL_WORKSPACE.repeat(values, counts, total, "k")
    fast = Workspace(8).repeat(values, counts, total, "k")
    assert ref.shape == (total,)
    assert np.array_equal(ref, fast)


@given(st.lists(st.booleans(), max_size=60))
def test_compress_parity(bits):
    mask = np.array(bits, dtype=bool)
    arr = np.arange(mask.size, dtype=np.int64) * 7
    ref = NULL_WORKSPACE.compress(mask, arr, "k")
    fast = Workspace(8).compress(mask, arr, "k")
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
    assert FAST.optimized and not REFERENCE.optimized
    # One strategy flag: everything else on a backend is its identity.
    assert [f.name for f in fields(ExecutionBackend)] == [
        "name",
        "description",
        "optimized",
    ]
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
    # The workspace's class carries the decision into the kernels: both
    # resolve a CAS race to the same first-occurrence winners.
    idx = np.array([3, 1, 3, 0, 1, 7], dtype=np.int64)
    fast_pos, fast_dests = make_workspace(FAST, 10).winner_scatter(idx)
    ref_pos, ref_dests = NULL_WORKSPACE.winner_scatter(idx)
    assert fast_pos.tolist() == ref_pos.tolist() == [3, 1, 0, 5]
    assert fast_dests.tolist() == ref_dests.tolist() == [0, 1, 3, 7]
