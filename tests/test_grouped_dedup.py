"""The hash table's grouped insert against the full-stream reference.

:meth:`~repro.primitives.hashing.HashTable.insert` probes once per
distinct key and charges per copy; :func:`tests.hash_reference.
full_stream_insert` runs one processor per copy.  Both must agree on
the inserted mask, the table, every tracker bucket, ``sync_count``,
the sanitizer's races and the fault plan's log, with no fault plan and
with ``cas_flip`` at p = 0.5 and 1.0, under both backends.
``contract`` must produce the same outputs either way, and allocate
less than the full-stream insert did on duplicate-heavy input.
"""

from __future__ import annotations

import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.decomp_cc import contraction_levels
from repro.decomp.base import Decomposition
from repro.decomp.contract import contract
from repro.engine.backend import resolve_backend
from repro.graphs import orkut_like
from repro.pram.cost import CostTracker
from repro.pram.sanitizer import PramSanitizer
from repro.primitives.hashing import HashTable, group_keys
from repro.resilience.faults import parse_fault_plan
from repro.runtime.context import current_context

from .conftest import _ZOO
from .hash_reference import full_stream_insert

BACKENDS = ["reference", "fast"]
FAULTS = [None, "cas_flip:p=0.5", "cas_flip:p=1.0"]


def _grouped_insert(table, keys):
    return table.insert(keys)


def _run_inserts(insert, batches, capacity, seed, backend, fault):
    """Insert *batches* into one fresh table; every observable."""
    sanitizer = PramSanitizer(halt_on_race=False)
    ctx = current_context().child(
        tracker=CostTracker(), backend=resolve_backend(backend), sanitizer=sanitizer
    )
    plan = parse_fault_plan(fault, seed=4)
    with ctx.activate(), plan.activate() if plan else nullcontext():
        table = HashTable(capacity, seed=seed)
        masks = [insert(table, np.asarray(b, dtype=np.int64)).tolist() for b in batches]
    return (
        masks,
        table.slots.tolist(),
        ctx.tracker.snapshot(),
        ctx.tracker.sync_count,
        [repr(race) for race in sanitizer.races],
        list(plan.fired) if plan else None,
        sanitizer.cas_checked,
    )


def _assert_matches(batches, seed=7, backend="fast", fault=None):
    capacity = sum(len(b) for b in batches)
    got = _run_inserts(_grouped_insert, batches, capacity, seed, backend, fault)
    want = _run_inserts(full_stream_insert, batches, capacity, seed, backend, fault)
    assert got == want
    return got


def _colliding_keys(count, seed=7, capacity=64):
    """*count* keys that all hash to one home slot of the table."""
    ctx = current_context().child(tracker=CostTracker())
    with ctx.activate():
        home = HashTable(capacity, seed=seed)._hash(np.arange(20_000, dtype=np.int64))
    same = np.flatnonzero(home == np.bincount(home).argmax())
    assert same.size >= count
    return same[:count]


def _named_cases():
    rng = np.random.default_rng(11)
    colliding = _colliding_keys(6)
    return {
        "all-distinct": [rng.permutation(5000)],
        "one-key": [np.full(1000, 7)],
        "2-keys-1e5-copies": [rng.integers(0, 2, 100_000) * 1_000_003],
        "5-keys-1e5-copies": [rng.integers(0, 5, 100_000) * 7919],
        "20-keys-1e5-copies": [rng.integers(0, 20, 100_000)],
        "colliding": [colliding[rng.integers(0, 6, 60)]],
        "second-insert": [rng.integers(0, 40, 300), rng.integers(20, 80, 200)],
    }


_NAMED = _named_cases()


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(_NAMED))
def test_named_cases_match_the_full_stream(name, backend, fault):
    batches = _NAMED[name]
    got = _assert_matches(batches, backend=backend, fault=fault)
    contested = any(len(set(np.asarray(b).tolist())) < len(b) for b in batches)
    if fault == "cas_flip:p=1.0" and contested:
        assert got[5], "the flips fire"
        assert got[4], "the flips surface as cas-order races"


def test_colliding_keys_share_a_home_slot():
    keys = _colliding_keys(6)
    ctx = current_context().child(tracker=CostTracker())
    with ctx.activate():
        assert np.unique(HashTable(64, seed=7)._hash(keys)).size == 1


@settings(max_examples=60, deadline=None)
@given(
    first=st.lists(st.integers(0, 40), min_size=0, max_size=120),
    second=st.lists(st.integers(0, 60), min_size=0, max_size=40),
    seed=st.integers(0, 1000),
    fault=st.sampled_from(FAULTS),
    backend=st.sampled_from(BACKENDS),
)
def test_random_batches_match_the_full_stream(first, second, seed, fault, backend):
    _assert_matches([first, second], seed=seed, backend=backend, fault=fault)


class TestGroupKeys:
    @pytest.mark.parametrize("domain", [3, 50, 10_000, 1 << 40])
    def test_groups_match_numpy(self, domain):
        rng = np.random.default_rng(domain % 97)
        keys = rng.integers(0, min(domain, 60), 400) * (domain // min(domain, 60))
        for backend in BACKENDS:
            ctx = current_context().child(backend=resolve_backend(backend))
            with ctx.activate():
                groups = group_keys(keys, max_key=int(keys.max()))
            uniq, first, count = np.unique(keys, return_index=True, return_counts=True)
            _, rev = np.unique(keys[::-1], return_index=True)
            assert groups.keys.tolist() == uniq.tolist()
            assert groups.first.tolist() == first.tolist()
            assert groups.last.tolist() == (keys.size - 1 - rev).tolist()
            assert groups.copies.tolist() == count.tolist()
            assert groups.by_first.tolist() == np.argsort(first).tolist()

    def test_all_distinct_keys_keep_stream_order(self):
        keys = np.array([9, 3, 7, 1], dtype=np.int64)
        groups = group_keys(keys, max_key=100)
        assert groups.by_first is None
        assert groups.keys.tolist() == [1, 3, 7, 9]
        assert groups.first.tolist() == groups.last.tolist() == [3, 1, 2, 0]


def _contract_outputs(decomposition, n, backend, fault, reference, monkeypatch):
    if reference:
        monkeypatch.setattr(
            HashTable,
            "insert",
            lambda table, keys, groups=None: full_stream_insert(table, keys),
        )
    sanitizer = PramSanitizer(halt_on_race=False)
    ctx = current_context().child(
        tracker=CostTracker(), backend=resolve_backend(backend), sanitizer=sanitizer
    )
    plan = parse_fault_plan(fault, seed=4)
    with ctx.activate(), plan.activate() if plan else nullcontext():
        c = contract(decomposition, n, dedup_seed=5)
    monkeypatch.undo()
    return (
        c.edge_pairs.tolist(),
        c.rep_src.tolist(),
        c.rep_dst.tolist(),
        c.graph.offsets.tobytes(),
        c.graph.targets.tobytes(),
        c.vertex_to_component.tolist(),
        c.component_to_sub.tolist(),
        c.sub_to_component.tolist(),
        c.num_components,
        ctx.tracker.snapshot(),
        ctx.tracker.sync_count,
        [repr(race) for race in sanitizer.races],
        list(plan.fired) if plan else None,
    )


def _decompositions():
    """Level decompositions of the zoo plus a duplicate-heavy dense graph."""
    graphs = dict(_ZOO, dense=orkut_like(2000, 30.0, seed=3))
    out = []
    for name, graph in graphs.items():
        for variant in ("arb", "min", "arb-hybrid", "min-hybrid"):
            for level, (g, dec, _c) in enumerate(
                contraction_levels(graph, 0.2, variant, seed=5)
            ):
                if dec.inter_src.size:
                    out.append((f"{name}-{variant}-{level}", dec, g.num_vertices))
    return out


_DECOMPOSITIONS = _decompositions()


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_contract_matches_the_full_stream_dedup(backend, fault, monkeypatch):
    duplicated = 0
    for _name, dec, n in _DECOMPOSITIONS:
        got = _contract_outputs(dec, n, backend, fault, False, monkeypatch)
        want = _contract_outputs(dec, n, backend, fault, True, monkeypatch)
        assert got == want, _name
        duplicated += len(got[0]) < dec.inter_src.size
    assert duplicated >= 8


#: Bytes a contraction of duplicate-heavy inter-edges may allocate per
#: kept edge, at its peak.  The grouped dedup peaks near 41: the pair
#: keys formed once from the kept labels (8) and the table's
#: 2^ceil(log2 2K) cells (16-32, allocated but left unwritten where no
#: key probes).  Gathering both endpoints' component ids into arrays of
#: their own before keying took it to 57, and the full-stream insert's
#: per-copy probe arrays to 124-133.
MAX_BYTES_PER_KEPT_EDGE = 48


@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_heavy_contraction_allocates_little(backend):
    rng = np.random.default_rng(1)
    n, draws = 3000, 200_000
    labels = np.repeat(np.array([0, 1000, 2000]), 1000).astype(np.int64)
    u, w = rng.integers(0, n, draws), rng.integers(0, n, draws)
    keep = labels[u] != labels[w]
    u, w = u[keep], w[keep]
    dec = Decomposition(
        labels=labels,
        inter_src=labels[u],
        inter_dst=labels[w],
        orig_src=u,
        orig_dst=w,
        num_rounds=1,
    )
    ctx = current_context().child(
        tracker=CostTracker(), backend=resolve_backend(backend)
    )
    with ctx.activate():
        contract(dec, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = contract(dec, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert result.edge_pairs.size == 6
    assert peak < MAX_BYTES_PER_KEPT_EDGE * u.size
