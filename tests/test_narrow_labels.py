"""The decomposition's component array in the narrowest label type.

``DecompState.C`` holds only ``UNVISITED`` and vertex ids, so it is
kept in ``label_dtype(n)``, the smallest signed type that holds both,
and widened to int64 where labels leave the state (``keep_inter`` and
``finish``).  The graphs here span every boundary of that type: 0 and
1 vertices (the ``n = 0`` guard and int8), 128 and 129 (int8 to
int16), 32,768 and 32,769 (int16 to int32).

The reference is the same run with ``label_dtype`` patched to int64.
Both runs must agree on the labels, every level's four inter-edge
arrays (int64, in order), ``edges_inspected``, ``frontier_sizes``,
every tracker bucket, ``sync_count``, the sanitizer's races and the
fault log, for all four ``decomp-*-CC`` variants under both backends,
with no fault, ``label_corrupt`` and ``cas_flip``.  Each narrow run
also asserts that ``C`` still has its narrow type when its level ends,
so no store silently upcast it.

The fast backend's dense CAS race keeps its position slots in int32;
its winners, and their positions in int64, must still be those of
``unique_winners``.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.decomp_cc import decomp_cc
from repro.decomp import base
from repro.decomp.base import DecompState
from repro.engine import workspace
from repro.engine.backend import resolve_backend
from repro.engine.core import UNVISITED, label_dtype
from repro.graphs.generators import empty_graph, random_gnm
from repro.pram.cost import CostTracker
from repro.pram.sanitizer import PramSanitizer
from repro.resilience.faults import parse_fault_plan
from repro.runtime.context import current_context

BACKENDS = ["reference", "fast"]

VARIANTS = ["arb", "arb-hybrid", "min", "min-hybrid"]

FAULTS = [None, "label_corrupt:p=0.5", "cas_flip:p=1.0"]

# n -> the graph; the edge counts give the hybrids dense rounds and
# every variant more than one level.
_GRAPHS = {
    0: empty_graph(0),
    1: empty_graph(1),
    128: random_gnm(128, 200, seed=3),
    129: random_gnm(129, 200, seed=4),
    32_768: random_gnm(32_768, 40_000, seed=5),
    32_769: random_gnm(32_769, 40_000, seed=6),
}


def _wide(n):
    return np.dtype(np.int64)


def _run(monkeypatch, graph, variant, backend, fault, *, wide):
    """One sanitized run: its observables and the label type of each level."""
    levels, dtypes = [], []
    finish = DecompState.finish

    def recording_finish(state):
        dtypes.append((state.n, state.C.dtype))
        dec = finish(state)
        arrays = (dec.inter_src, dec.inter_dst, dec.orig_src, dec.orig_dst)
        assert dec.labels.dtype == np.int64
        assert all(a.dtype == np.int64 for a in arrays)
        levels.append(
            (
                dec.labels.tolist(),
                [a.tolist() for a in arrays],
                dec.edges_inspected,
                list(dec.frontier_sizes),
                list(dec.dense_rounds),
            )
        )
        return dec

    monkeypatch.setattr(DecompState, "finish", recording_finish)
    if wide:
        monkeypatch.setattr(base, "label_dtype", _wide)
    sanitizer = PramSanitizer(halt_on_race=False)
    ctx = current_context().child(
        tracker=CostTracker(), backend=resolve_backend(backend), sanitizer=sanitizer
    )
    plan = parse_fault_plan(fault, seed=4)
    with ctx.activate(), plan.activate() if plan else nullcontext():
        result = decomp_cc(graph, beta=0.2, variant=variant, seed=7)
    monkeypatch.undo()
    observed = (
        result.labels.tolist(),
        levels,
        ctx.tracker.snapshot(),
        ctx.tracker.sync_count,
        [repr(race) for race in sanitizer.races],
        list(plan.fired) if plan else None,
    )
    return observed, dtypes


@pytest.mark.parametrize("fault", FAULTS, ids=["no-fault", "label-corrupt", "cas-flip"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", list(_GRAPHS))
def test_narrow_labels_match_int64_labels(n, variant, backend, fault, monkeypatch):
    graph = _GRAPHS[n]
    got, dtypes = _run(monkeypatch, graph, variant, backend, fault, wide=False)
    want, wide_dtypes = _run(monkeypatch, graph, variant, backend, fault, wide=True)
    assert got == want
    assert dtypes and dtypes[0][0] == n
    assert all(dtype == label_dtype(size) for size, dtype in dtypes)
    assert all(dtype == np.int64 for _size, dtype in wide_dtypes)
    if n > 1 and fault is not None:
        assert got[-1], "the fault fires"
    if n > 1 and fault == "cas_flip:p=1.0":
        assert got[-2], "the flips surface as cas-order races"


@pytest.mark.parametrize(
    "n, dtype",
    [
        (0, np.int8),
        (1, np.int8),
        (128, np.int8),
        (129, np.int16),
        (32_768, np.int16),
        (32_769, np.int32),
        (1 << 31, np.int32),
        ((1 << 31) + 1, np.int64),
    ],
)
def test_label_dtype_holds_unvisited_and_every_id(n, dtype):
    got = label_dtype(n)
    assert got == dtype
    info = np.iinfo(got)
    assert info.min <= UNVISITED and max(n - 1, 0) <= info.max


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_sentinel_does_not_promote(dtype):
    assert np.result_type(dtype, UNVISITED) == dtype
    labels = np.array([UNVISITED, 0, 1], dtype=dtype)
    assert (labels == UNVISITED).dtype == bool
    assert (labels == UNVISITED).tolist() == [True, False, False]


# -- the dense race's int32 slots -------------------------------------------


def _check_race(idx):
    idx = np.asarray(idx, dtype=np.int64)
    positions, dests = workspace._scatter_race(idx, int(idx.max()) + 1)
    want_positions, want_dests = workspace.unique_winners(idx)
    assert positions.dtype == np.int64
    assert np.array_equal(positions, want_positions)
    assert np.array_equal(dests, want_dests)


@given(st.integers(min_value=0, max_value=20_000))
def test_race_single_contender(dest):
    _check_race([dest])


@given(st.integers(min_value=0, max_value=20_000), st.integers(1, 300))
def test_race_all_contenders_equal(dest, m):
    _check_race([dest] * m)


@given(st.permutations(range(64)), st.integers(min_value=0, max_value=20_000))
def test_race_all_distinct(order, offset):
    _check_race(np.array(order) + offset)


@settings(deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=workspace._SCATTER_ALWAYS_IDS),
        min_size=1,
        max_size=400,
    )
)
def test_race_bound_just_above_always_scatter(xs):
    # The largest id makes the bound one above the always-scatter size.
    _check_race([*xs, workspace._SCATTER_ALWAYS_IDS])


def test_dense_race_slots_are_int32(monkeypatch):
    made = []
    empty = np.empty

    def recording_empty(shape, dtype=float, *args, **kwargs):
        made.append(np.dtype(dtype))
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(workspace.np, "empty", recording_empty)
    idx = np.array([3, 1, 3, 2, 1], dtype=np.int64)
    positions, dests = workspace.FAST_WORKSPACE.winner_scatter(idx)
    monkeypatch.undo()
    assert made == [np.dtype(np.int32)]
    assert positions.tolist() == [1, 3, 0] and dests.tolist() == [1, 2, 3]
