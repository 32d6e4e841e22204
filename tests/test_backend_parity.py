"""Backend parity properties: fast == reference, element for element.

The golden-fixture suite (``tests/test_engine_parity.py``) pins both
backends against recorded traces; this module attacks the same
contract from below with property-based tests on the individual fast
paths:

* the workspace's race resolution (the O(n) reverse-order winner
  scatter for dense races, the packed-word sort for sparse ones)
  picks exactly the winners the sort-based ``np.unique`` path picks,
  for the same charge;
* the packed-word value sort is the same permutation as the reference
  per-digit loop, and ``radix_sort``'s value sort the same array, each
  with the same charge, and contraction's
  representative index matches a stable argsort on either backend;
* frontier expansion through the fast workspace's unchecked gathers
  matches the checked expansion, and the ragged positions it gathers
  at match their definition, empty inputs included;
* the start permutation's packed sort returns the reference's
  permutation and charge, prefix collisions and key ties included;
* the shared, stateless fast workspace serves round after round and
  run after run without carrying anything between them;
* the backend registry itself (resolve / scope / default) behaves.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import fields
from unittest import mock

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
from repro.engine import workspace as workspace_module
from repro.engine.workspace import FAST_WORKSPACE, NULL_WORKSPACE, Workspace
from repro.errors import ParameterError
from repro.graphs import random_gnm, random_kregular, rmat
from repro.graphs.csr import ragged_positions
from repro.primitives.atomics import first_winner
from repro.pram.cost import tracking
from repro.primitives import rand as rand_module
from repro.primitives.hashing import _table_size
from repro.primitives.rand import random_permutation
from repro.primitives.sort import radix_argsort, radix_sort
from repro.runtime.context import current_context

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


#: A handful of contenders, the common race in small rounds.
tiny_streams = st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=1, max_size=8
)

# -- first_winner: scatter path == sort path ------------------------------


@settings(max_examples=200)
@given(st.one_of(dest_streams, sparse_streams, tiny_streams))
def test_first_winner_scatter_matches_sort(xs):
    idx = np.array(xs, dtype=np.int64)
    with tracking() as ref_cost:
        ref_pos, ref_dst = first_winner(idx, workspace=None)
    with tracking() as fast_cost:
        fast_pos, fast_dst = first_winner(idx, workspace=FAST_WORKSPACE)
    assert np.array_equal(ref_pos, fast_pos)
    assert np.array_equal(ref_dst, fast_dst)
    assert fast_pos.dtype == np.int64
    assert ref_cost.snapshot() == fast_cost.snapshot()
    # the winner schedule really is "first occurrence per destination"
    for p, d in zip(fast_pos.tolist(), fast_dst.tolist()):
        assert xs[p] == d
        assert xs.index(d) == p


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12_000),
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=0, max_value=2**32),
)
def test_first_winner_matches_sort_across_the_crossover(m, spread, seed):
    # Ids up to one to three times the contender count, over ranges on
    # both sides of the always-scatter size: races on both sides of the
    # dense/sparse crossover (half the largest id).
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, m * spread, size=m, endpoint=True)
    idx[rng.integers(0, m)] = m * spread
    with tracking() as ref_cost:
        ref_pos, ref_dst = first_winner(idx, workspace=None)
    with tracking() as fast_cost:
        fast_pos, fast_dst = first_winner(idx, workspace=FAST_WORKSPACE)
    assert np.array_equal(ref_pos, fast_pos)
    assert np.array_equal(ref_dst, fast_dst)
    assert ref_cost.snapshot() == fast_cost.snapshot()


def _spy_races():
    """Patch the fast workspace's two race paths to record which ran."""
    ran = []

    def spy(name):
        real = getattr(workspace_module, name)

        def wrapped(idx, bound):
            ran.append(name)
            return real(idx, bound)

        return mock.patch.object(workspace_module, name, wrapped)

    return ran, spy("_scatter_race"), spy("_sort_race")


@pytest.mark.parametrize(
    "m,top,dense",
    [(5000, 9999, True), (5000, 10_000, False), (2, 8191, True), (2, 8192, False)],
)
def test_race_crossover_picks_the_path(m, top, dense):
    # Above the always-scatter range of 8192 ids, m contenders scatter
    # while they number at least half of the id range, and sort below.
    idx = np.arange(m, dtype=np.int64) * top // (m - 1)
    idx[2::4] = idx[1]
    ran, scatter_spy, sort_spy = _spy_races()
    with scatter_spy, sort_spy:
        pos, dst = FAST_WORKSPACE.winner_scatter(idx)
    ref_pos, ref_dst = NULL_WORKSPACE.winner_scatter(idx)
    assert pos.tolist() == ref_pos.tolist()
    assert dst.tolist() == ref_dst.tolist()
    assert ran == (["_scatter_race"] if dense else ["_sort_race"])


def test_single_contender_returns_a_fresh_copy():
    idx = np.array([123_456], dtype=np.int64)
    ran, scatter_spy, sort_spy = _spy_races()
    with scatter_spy, sort_spy:
        pos, dst = FAST_WORKSPACE.winner_scatter(idx)
    assert pos.tolist() == [0] and dst.tolist() == [123_456]
    assert dst is not idx and ran == []


def test_ids_too_wide_to_pack_still_resolve():
    idx = np.array([2**62, 5, 2**62, 2**62 - 1], dtype=np.int64)
    pos, dst = FAST_WORKSPACE.winner_scatter(idx)
    assert pos.tolist() == [1, 3, 0]
    assert dst.tolist() == [5, 2**62 - 1, 2**62]


def test_sparse_race_skips_the_id_scan():
    # Two contenders at a high id must not scan a max-id-sized mask.
    ran, scatter_spy, sort_spy = _spy_races()
    with scatter_spy, sort_spy:
        pos, dst = first_winner(
            np.array([199_999, 3, 199_999]), workspace=FAST_WORKSPACE
        )
    assert pos.tolist() == [1, 0]
    assert dst.tolist() == [3, 199_999]
    assert ran == ["_sort_race"]


def test_first_winner_all_colliding():
    idx = np.full(1000, 7, dtype=np.int64)
    pos, dst = first_winner(idx, workspace=FAST_WORKSPACE)
    assert pos.tolist() == [0]
    assert dst.tolist() == [7]


def test_first_winner_empty_stream():
    idx = np.zeros(0, dtype=np.int64)
    pos, dst = first_winner(idx, workspace=FAST_WORKSPACE)
    assert pos.size == 0 and dst.size == 0


@given(st.lists(dest_streams, min_size=2, max_size=5))
def test_first_winner_workspace_reuse_no_leak(streams):
    """The shared workspace, round after round, == the sort path."""
    for xs in streams:
        idx = np.array(xs, dtype=np.int64)
        shared = first_winner(idx, workspace=FAST_WORKSPACE)
        ref = first_winner(idx, workspace=None)
        assert np.array_equal(shared[0], ref[0])
        assert np.array_equal(shared[1], ref[1])


# -- radix sorts: the fast backend's value sorts == per-digit loop ---------


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
    for sort in (radix_argsort, radix_sort):
        with use_backend("reference"), tracking() as ref_cost:
            ref = sort(keys)
        with use_backend("fast"), tracking() as fast_cost:
            fast = sort(keys)
        assert ref.dtype == fast.dtype
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


# -- random_permutation: packed sort == per-digit loop --------------------


def _colliding_randoms(low_bits, pool):
    """``hash_randoms`` with its top bits drawn from a pool of *pool*.

    Keys then share long prefixes, so the packed sort's runs of equal
    prefixes (and, with few low bits, exact key ties) actually occur.
    """
    real = rand_module.hash_randoms

    def draw(n, seed, stream=0):
        bits = real(n, seed, stream)
        tops = real(pool, seed + 1, stream)
        low = np.uint64((1 << low_bits) - 1)
        return (tops[bits % np.uint64(pool)] & ~low) | (bits & low)

    return draw


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=2**40),
    st.sampled_from([1, 13, 99]),
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=16),
            st.integers(min_value=1, max_value=8),
        ),
    ),
)
def test_random_permutation_backend_parity(n, seed, stream, collide):
    patch = (
        mock.patch.object(rand_module, "hash_randoms", _colliding_randoms(*collide))
        if collide
        else nullcontext()
    )
    with patch:
        with use_backend("reference"), tracking() as ref_cost:
            ref = random_permutation(n, seed, stream=stream)
        with use_backend("fast"), tracking() as fast_cost:
            fast = random_permutation(n, seed, stream=stream)
    assert np.array_equal(ref, fast)
    assert fast.dtype == np.int64
    assert ref_cost.snapshot() == fast_cost.snapshot()


# -- gathers: fast == reference, empty inputs included --------------------

counts_lists = st.lists(st.integers(min_value=0, max_value=5), max_size=40)


@given(
    counts_lists,
    st.lists(st.integers(min_value=0, max_value=1000), max_size=40),
)
def test_ragged_positions_parity(xs, gaps):
    counts = np.array(xs, dtype=np.int64)
    # Slices at arbitrary (possibly overlapping) starts.
    starts = np.resize(np.array(gaps or [0], dtype=np.int64), counts.size)
    total = int(counts.sum())
    want = [s + k for s, c in zip(starts.tolist(), xs) for k in range(c)]
    got = ragged_positions(starts, counts, total)
    assert got.dtype == np.int64
    assert got.tolist() == want


@given(st.lists(st.booleans(), max_size=60))
def test_compress_parity(bits):
    mask = np.array(bits, dtype=bool)
    arr = np.arange(mask.size, dtype=np.int64) * 7
    ref = NULL_WORKSPACE.compress(mask, arr)
    fast = FAST_WORKSPACE.compress(mask, arr)
    assert np.array_equal(ref, fast)


@given(st.lists(st.integers(min_value=0, max_value=59), max_size=60))
def test_take_parity(xs):
    idx = np.array(xs, dtype=np.int64)
    arr = np.arange(60, dtype=np.int64) * 7
    ref = NULL_WORKSPACE.take(arr, idx)
    fast = FAST_WORKSPACE.take(arr, idx)
    assert np.array_equal(ref, fast)
    assert fast.dtype == arr.dtype


# -- expand: unchecked gathers == checked gathers -------------------------


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
    fast_src, fast_dst = graph.expand(front, workspace=FAST_WORKSPACE)
    assert np.array_equal(ref_src, fast_src)
    assert np.array_equal(ref_dst, fast_dst)


def test_expand_workspace_reuse_across_rounds():
    """Shrinking then growing frontiers through the shared workspace."""
    graph = random_kregular(64, 5, seed=3)
    for front in (
        np.arange(64, dtype=np.int64),
        np.arange(0, 64, 7, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.arange(32, dtype=np.int64),
    ):
        ref = graph.expand(front, workspace=None)
        fast = graph.expand(front, workspace=FAST_WORKSPACE)
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


def test_backend_workspace_follows_backend_flags():
    assert FAST.workspace is FAST_WORKSPACE
    assert isinstance(FAST_WORKSPACE, Workspace)
    assert REFERENCE.workspace is NULL_WORKSPACE
    with use_backend("reference"):
        assert current_context().acquire_workspace(10) is NULL_WORKSPACE
    with use_backend("fast"):
        assert current_context().acquire_workspace(10) is FAST_WORKSPACE
    # The workspace's class carries the decision into the kernels: both
    # resolve a CAS race to the same first-occurrence winners.
    idx = np.array([3, 1, 3, 0, 1, 7], dtype=np.int64)
    fast_pos, fast_dests = FAST.workspace.winner_scatter(idx)
    ref_pos, ref_dests = NULL_WORKSPACE.winner_scatter(idx)
    assert fast_pos.tolist() == ref_pos.tolist() == [3, 1, 0, 5]
    assert fast_dests.tolist() == ref_dests.tolist() == [0, 1, 3, 7]
