"""A level's kept edges stay compact until contraction reads them.

``DecompState`` keeps each chunk of surviving edges as its round kept
it: the two labels in the level's narrow label type and the original
endpoints in int64.  ``Decomposition`` builds its four int64 inter-edge
arrays only when they are read, and ``contract`` forms its pair keys
straight from the chunks and gathers endpoints only for the
representatives it keeps.

The golden fixture ``tests/golden/kept_edges.json`` was captured from
the implementation that widened and concatenated every chunk eagerly.
Every case of it (the test zoo, graphs at the int8/int16 and
int16/int32 label boundaries and a many-copies dense graph; all four
``decomp-*`` variants; no fault, ``label_corrupt`` and ``cas_flip``)
must replay to the same record under both backends with the sanitizer
armed: labels, each level's four arrays as read (values, int64 dtype,
order), ``num_inter_directed``, ``edges_inspected``, ``frontier_sizes``,
``dense_rounds``, the contraction's outputs, the tracker snapshot,
``sync_count``, the races and the fault log.  A ``Decomposition`` built
from those arrays must contract exactly as the chunks do.

The tracemalloc test bounds decompose + contract on a level that keeps
many copies of few pairs below what the eager implementation peaked at.
"""

from __future__ import annotations

import json
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from repro.decomp.base import Decomposition
from repro.decomp.contract import contract
from repro.decomp.decomp_arb_hybrid import decomp_arb_hybrid
from repro.engine.backend import resolve_backend
from repro.graphs.generators import orkut_like
from repro.pram.cost import CostTracker
from repro.pram.sanitizer import PramSanitizer
from repro.resilience.faults import parse_fault_plan
from repro.runtime.context import current_context

from tests.golden.generate_kept_edges import OUT_PATH, capture, cases

BACKENDS = ["reference", "fast"]

with open(OUT_PATH) as _fh:
    _FIXTURE = json.load(_fh)

_CASES = {key: case for key, *case in cases()}


def _contracted(dec, n, seed, backend, fault):
    """Every observable of one sanitized contraction of *dec*."""
    sanitizer = PramSanitizer(halt_on_race=False)
    ctx = current_context().child(
        tracker=CostTracker(), backend=resolve_backend(backend), sanitizer=sanitizer
    )
    plan = parse_fault_plan(fault, seed=4)
    with ctx.activate(), plan.activate() if plan else nullcontext():
        con = contract(dec, n, dedup_seed=seed)
    return (
        [
            a.tolist()
            for a in (
                con.edge_pairs,
                con.rep_src,
                con.rep_dst,
                con.vertex_to_component,
                con.component_to_sub,
                con.sub_to_component,
                con.graph.offsets,
                con.graph.targets,
            )
        ],
        con.num_components,
        ctx.tracker.snapshot(),
        ctx.tracker.sync_count,
        [repr(race) for race in sanitizer.races],
        list(plan.fired) if plan else None,
    )


def _fresh(dec):
    """*dec*'s chunks in a new decomposition, none of its arrays built yet."""
    return Decomposition.from_chunks(
        dec.labels,
        dec.kept,
        dec.num_rounds,
        dec.frontier_sizes,
        dec.edges_inspected,
        dec.dense_rounds,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("key", list(_CASES))
def test_replays_the_eager_fixture(key, backend):
    graph, variant, fault, seed = _CASES[key]
    record, levels = capture(graph, variant, backend, fault, seed)
    assert record == _FIXTURE[key]
    for dec, con, dedup_seed in levels:
        arrays = (dec.inter_src, dec.inter_dst, dec.orig_src, dec.orig_dst)
        assert all(a.dtype == np.int64 for a in arrays)
        assert all(a.size == dec.num_inter_directed for a in arrays)
        plain = Decomposition(dec.labels, *arrays, dec.num_rounds)
        n = dec.labels.size
        want = _contracted(plain, n, dedup_seed, backend, fault)
        assert want[0][:3] == [
            con.edge_pairs.tolist(), con.rep_src.tolist(), con.rep_dst.tolist()
        ]
        assert _contracted(_fresh(dec), n, dedup_seed, backend, fault) == want


def test_fixture_covers_faults_levels_and_races():
    assert set(_FIXTURE) == set(_CASES)
    records = list(_FIXTURE.values())
    assert sum(r["num_levels"] > 1 for r in records) >= 100
    assert sum(r["num_races"] > 0 for r in records) >= 50


@pytest.mark.parametrize("backend", BACKENDS)
def test_cas_flip_hands_pairs_to_their_last_copies(backend):
    # Under cas_flip at p = 1 every contested claim goes to its last
    # contender, so each pair with several copies is represented by
    # its last copy: its endpoints are gathered from there.
    flipped = 0
    for graph, variant, fault, seed in _CASES.values():
        if fault != "cas_flip:p=1.0":
            continue
        _record, levels = capture(graph, variant, backend, fault, seed)
        for dec, con, _seed in levels:
            component = np.zeros(dec.labels.size, dtype=np.int64)
            component[dec.labels] = con.vertex_to_component
            src = component[dec.inter_src]
            dst = component[dec.inter_dst]
            stream = src * con.num_components + dst
            last = {int(k): i for i, k in enumerate(stream.tolist())}
            first = {}
            for i, k in enumerate(stream.tolist()):
                first.setdefault(int(k), i)
            for j, pair in enumerate(con.edge_pairs.tolist()):
                if first[pair] == last[pair]:
                    continue
                at = last[pair]
                assert con.rep_src[j] == dec.orig_src[at]
                assert con.rep_dst[j] == dec.orig_dst[at]
                flipped += 1
    assert flipped >= 100


def test_arrays_are_built_on_first_read():
    graph = orkut_like(4000, 40.0, seed=2)
    dec = decomp_arb_hybrid(graph, 0.2, seed=5)
    assert dec.num_inter_directed > 0
    assert not {"inter_src", "inter_dst", "orig_src", "orig_dst"} & set(vars(dec))
    assert dec.kept[0][0].dtype == np.int16
    first = dec.inter_src
    assert first.dtype == np.int64 and dec.inter_src is first
    assert first.size == dec.num_inter_directed


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_arrays_join_the_chunks_in_int64(dtype):
    rng = np.random.default_rng(3)
    sizes = [5, 1, 17, 3, 40]
    chunks = tuple(
        [rng.integers(-1, 100, s).astype(dtype) for s in sizes] for _ in range(2)
    ) + tuple([rng.integers(0, 1 << 40, s) for s in sizes] for _ in range(2))
    dec = Decomposition.from_chunks(np.arange(100), chunks, 1, [], 0, [])
    assert dec.num_inter_directed == sum(sizes)
    arrays = (dec.inter_src, dec.inter_dst, dec.orig_src, dec.orig_dst)
    for got, parts in zip(arrays, chunks):
        assert got.dtype == np.int64
        assert got.tolist() == np.concatenate(parts).astype(np.int64).tolist()


#: The many-copies level: level 0 of ``decomp-arb-hybrid`` on
#: ``orkut_like(4000, 40.0, seed=2)`` at seed 5 keeps 53,892 directed
#: edges between 2 partitions, which contract to 2 pairs.  Over
#: decompose + contract the eager implementation peaked at 4,233,982
#: bytes (reference backend; 4,232,422 fast), tracemalloc, its hash
#: table's 1 MiB of zeroed cells included.  The compact chunks peak at
#: 3,150,202 bytes (3,157,865 reference), the table included.
_EAGER_PEAK = 4_232_422
_PEAK_BOUND = 3_500_000


@pytest.mark.parametrize("backend", BACKENDS)
def test_many_copies_level_peaks_below_the_eager_one(backend):
    graph = orkut_like(4000, 40.0, seed=2)
    ctx = current_context().child(
        tracker=CostTracker(), backend=resolve_backend(backend)
    )
    with ctx.activate():
        decomp_arb_hybrid(graph, 0.2, seed=5)
        tracemalloc.start()
        try:
            base_bytes = tracemalloc.get_traced_memory()[0]
            dec = decomp_arb_hybrid(graph, 0.2, seed=5)
            con = contract(dec, graph.num_vertices)
            peak = tracemalloc.get_traced_memory()[1] - base_bytes
        finally:
            tracemalloc.stop()
    assert dec.num_inter_directed > 20 * con.edge_pairs.size
    assert peak < _PEAK_BOUND < _EAGER_PEAK
