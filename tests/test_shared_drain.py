"""The drain round that classifies its frontier off filterEdges' stream.

A Decomp-Arb-Hybrid level that ran a dense round builds the level's
label stream in ``filter_edges`` at level end.  The push round run after every
vertex is visited (the drain round) runs that stream instead of
expanding its frontier, keeps its frontier's differing edges at the
round, and leaves the stream for ``filter_edges``, which reuses it
unless the labels changed in between.

The reference is the ragged drain: the same code with the gate
(``kernels._drain_reads_stream``) forced false.  Both runs must agree
on the labels, the four inter-edge arrays in order, ``edges_inspected``,
every tracker bucket, ``sync_count``, the sanitizer's races and the
fault log, under both backends.  Each case also asserts the path it
takes.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.connectivity.decomp_cc import decomp_cc
from repro.decomp.base import DecompState
from repro.engine import kernels
from repro.engine.backend import resolve_backend
from repro.fuzz import CaseGraph, build_case_graph
from repro.graphs.generators import disjoint_union_edges, empty_graph
from repro.pram.cost import CostTracker
from repro.pram.sanitizer import PramSanitizer
from repro.resilience.faults import parse_fault_plan
from repro.runtime.context import current_context

BACKENDS = ["reference", "fast"]


def _family(family, **params):
    return build_case_graph(CaseGraph(kind="family", family=family, params=params))


def _bridged(k1, k2):
    return _family("bridged-cliques", clique1=k1, clique2=k2)


def _run(monkeypatch, graph, backend, *, seed, fault, reference):
    """One sanitized Decomp-Arb-Hybrid run: its observables and the paths taken.

    The paths, in the order taken: ``drain-stream`` (a drain round on a
    level with more than one partition reads the stream) or
    ``drain-ragged`` (it expands its frontier), then ``stream`` for each
    run of the label stream and ``reuse`` for each read of a kept one.
    """
    gate, label_stream = kernels._drain_reads_stream, kernels._label_stream
    paths = []

    def recording_gate(state):
        shared = gate(state) and not reference
        if state.visited >= state.n:
            paths.append("drain-stream" if shared else "drain-ragged")
        return shared

    def recording_stream(state):
        cached = state.label_stream
        stream = label_stream(state)
        if state.label_stream is cached and cached is not None:
            paths.append("reuse")
        else:
            paths.append("stream")
        return stream

    levels = []
    finish = DecompState.finish

    def recording_finish(state):
        dec = finish(state)
        levels.append(
            (
                dec.labels.tolist(),
                dec.inter_src.tolist(),
                dec.inter_dst.tolist(),
                dec.orig_src.tolist(),
                dec.orig_dst.tolist(),
                dec.edges_inspected,
                list(dec.dense_rounds),
            )
        )
        return dec

    monkeypatch.setattr(kernels, "_drain_reads_stream", recording_gate)
    monkeypatch.setattr(kernels, "_label_stream", recording_stream)
    monkeypatch.setattr(DecompState, "finish", recording_finish)
    sanitizer = PramSanitizer(halt_on_race=False)
    ctx = current_context().child(
        tracker=CostTracker(), backend=resolve_backend(backend), sanitizer=sanitizer
    )
    plan = parse_fault_plan(fault, seed=4)
    with ctx.activate(), plan.activate() if plan else nullcontext():
        result = decomp_cc(graph, beta=0.2, variant="arb-hybrid", seed=seed)
    monkeypatch.undo()
    observed = (
        result.labels.tolist(),
        levels,
        ctx.tracker.snapshot(),
        ctx.tracker.sync_count,
        [repr(race) for race in sanitizer.races],
        list(plan.fired) if plan else None,
    )
    return observed, paths


# (name, graph, seed, fault, the paths level 0 takes, in order)
_CASES = [
    (
        "two-partitions",
        _bridged(3, 4),
        3,
        None,
        ["drain-stream", "stream", "reuse"],
    ),
    (
        "three-partitions",
        _bridged(3, 7),
        3,
        None,
        ["drain-stream", "stream", "reuse"],
    ),
    # Vertex 4 holds label 4 and vertex 7 label 7 when the drain (round
    # 2) ends; the corruption at the next round boundary changes a label
    # between the drain and filterEdges, so the stream is run again.
    (
        "label-corrupt-after-drain",
        _bridged(3, 7),
        3,
        "label_corrupt:vertex=4,label_from=7,rounds=3",
        ["drain-stream", "stream", "stream"],
    ),
    (
        "cas-flip",
        _bridged(5, 8),
        4,
        "cas_flip:p=1.0",
        ["drain-stream", "stream", "reuse"],
    ),
    (
        "isolated-vertices",
        disjoint_union_edges([_bridged(3, 4), empty_graph(3)]),
        2,
        None,
        ["drain-stream", "stream", "reuse"],
    ),
    ("no-dense-round", _family("path", n=12), 2, None, ["drain-ragged"]),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_shared_drain_matches_the_ragged_drain(case, backend, monkeypatch):
    _name, graph, seed, fault, level0 = case
    got, paths = _run(
        monkeypatch, graph, backend, seed=seed, fault=fault, reference=False
    )
    want, ref_paths = _run(
        monkeypatch, graph, backend, seed=seed, fault=fault, reference=True
    )
    assert paths[: len(level0)] == level0
    assert "drain-stream" not in ref_paths
    if fault is not None:
        assert got[-1], "the fault fires"
    if fault is not None and fault.startswith("cas_flip"):
        assert got[-2], "the flips surface as cas-order races"
    assert got == want


def test_drain_keeps_its_edges_at_the_round():
    # The drain's kept edges land in their own chunk, between the dense
    # rounds' and filterEdges', as the ragged drain's do.
    graph = _bridged(3, 7)
    chunks = []
    keep_differing = kernels._keep_differing

    def recording(state, vertices, keep_stream):
        before = len(state.inter_src_chunks)
        keep_differing(state, vertices, keep_stream)
        chunks.append((keep_stream, len(state.inter_src_chunks) - before))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_keep_differing", recording)
        decomp_cc(graph, beta=0.2, variant="arb-hybrid", seed=3)
    assert chunks[:2] == [(True, 1), (False, 1)]


def test_gate_needs_a_dense_round_and_every_vertex_visited():
    graph = _bridged(3, 4)
    ctx = current_context().child(tracker=CostTracker())
    with ctx.activate():
        state = DecompState(graph, 0.2, 1, "permutation")
    assert not kernels._drain_reads_stream(state)
    state.deferred.append(np.arange(2, dtype=np.int64))
    assert not kernels._drain_reads_stream(state)
    state.visited = state.n
    assert kernels._drain_reads_stream(state)
    state.deferred.clear()
    assert not kernels._drain_reads_stream(state)
