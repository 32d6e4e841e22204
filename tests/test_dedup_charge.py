"""Contraction's dedup charge, recomputed from its formula.

``docs/cost_model.md`` charges the hash table of a contraction over
``K`` kept edges with ``D`` distinct label pairs as: ``alloc`` of
``2^ceil(log2 2K)`` slots (16 at least); per probe round a ``hash`` for
every pending copy and an ``atomic`` for every copy claiming an empty
slot, each at depth 1.  Per distinct key ``g`` with ``c_g`` copies that
is inserted in its ``p_g``-th probe round, having claimed in ``a_g`` of
them, that sums to

    hash   = sum_g c_g * p_g + (c_g - 1)     (the other copies retire
                                              as duplicates one round
                                              after the insert)
    atomic = sum_g c_g * a_g

with the rounds of the insert as the ``hash`` depth and the rounds
with a claim as the ``atomic`` depth.  ``p_g`` and ``a_g`` are read off
the full-stream reference's probe trace; the charge itself comes from
the grouped insert.  Run over every contraction of the test zoo's
``decomp-*-CC`` runs under both backends; one unit moved anywhere fails.
"""

from __future__ import annotations

import copy
import importlib

import numpy as np
import pytest

from repro.connectivity.decomp_cc import decomp_cc
from repro.engine.backend import resolve_backend
from repro.pram.cost import CostTracker
from repro.primitives.hashing import HashTable, _table_size
from repro.runtime.context import current_context

from .conftest import _ZOO
from .hash_reference import full_stream_insert

BACKENDS = ["reference", "fast"]

# The module, which ``repro.decomp``'s ``contract`` function shadows.
contract_module = importlib.import_module("repro.decomp.contract")


def _probe_rounds(table, keys):
    """Per distinct key: copies ``c``, probe rounds ``p``, claim rounds ``a``;
    and the insert's rounds and rounds with a claim."""
    trace = {}
    scratch = copy.copy(table)
    scratch.slots = table.slots.copy()
    with current_context().child(tracker=CostTracker()).activate():
        inserted = full_stream_insert(scratch, keys, trace)
    pending = np.bincount(np.concatenate(trace["pending"]), minlength=keys.size)
    claiming = np.bincount(np.concatenate(trace["claiming"]), minlength=keys.size)
    winner = np.flatnonzero(inserted)
    distinct, counts = np.unique(keys, return_counts=True)
    copies = counts[np.searchsorted(distinct, keys[winner])]
    rounds = len(trace["pending"])
    claim_rounds = sum(1 for c in trace["claiming"] if c.size)
    return copies, pending[winner], claiming[winner], rounds, claim_rounds


def expected_dedup_charge(copies, probe_rounds, claim_rounds, rounds, rounds_claimed):
    """The formula of ``docs/cost_model.md``, as (work, depth) per kind."""
    return {
        "hash": (float(np.sum(copies * probe_rounds + copies - 1)), float(rounds)),
        "atomic": (float(np.sum(copies * claim_rounds)), float(rounds_claimed)),
    }


def _delta(before, after):
    got = {}
    for key, (work, depth) in after.items():
        w0, d0 = before.get(key, (0.0, 0.0))
        if (work - w0, depth - d0) != (0.0, 0.0):
            got[key[1]] = (work - w0, depth - d0)
    return got


@pytest.mark.parametrize("backend", BACKENDS)
def test_dedup_charge_recomputed_over_zoo(backend, monkeypatch):
    checked = {"inserts": 0, "duplicated": 0, "probed_on": 0}

    class CheckedTable(HashTable):
        def __init__(self, capacity, seed=0x5EED):
            tracker = current_context().tracker
            before = tracker.snapshot()
            super().__init__(capacity, seed)
            assert _delta(before, tracker.snapshot()) == {
                "alloc": (float(_table_size(max(capacity, 1))), 1.0)
            }

        def insert(self, keys, groups=None):
            stats = _probe_rounds(self, keys)
            tracker = current_context().tracker
            before, syncs = tracker.snapshot(), tracker.sync_count
            inserted = super().insert(keys, groups)
            assert _delta(before, tracker.snapshot()) == expected_dedup_charge(*stats)
            assert tracker.sync_count == syncs
            copies, probe_rounds = stats[0], stats[1]
            checked["inserts"] += 1
            checked["duplicated"] += int((copies > 1).any())
            checked["probed_on"] += int((probe_rounds > 1).any())
            return inserted

    monkeypatch.setattr(contract_module, "HashTable", CheckedTable)
    for graph in _ZOO.values():
        for variant in ("arb", "min", "arb-hybrid", "min-hybrid"):
            ctx = current_context().child(
                tracker=CostTracker(), backend=resolve_backend(backend)
            )
            with ctx.activate():
                decomp_cc(graph, variant=variant, seed=2)
    assert checked["inserts"] >= 60
    assert checked["duplicated"] >= 10
    assert checked["probed_on"] >= 10
