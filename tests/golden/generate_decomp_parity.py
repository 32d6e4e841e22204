"""Regenerate the golden decomposition-parity fixture.

The fixture ``decomp_parity.json`` pins, for every zoo graph x variant
x (beta, seed) combination, the full observable surface of one
decomposition run: the labeling, the recorded inter-edge list, the
per-round statistics, and the cost profile bucketed by (phase, kind).
The engine parity suite (``tests/test_engine_parity.py``) replays the
same runs through the current implementations and asserts bit-identical
results.

The fixture was first captured at the last pre-engine commit
(``cbcddb5``, the per-variant hand-rolled round loops), so the suite
proves the :mod:`repro.engine` rewrite is seed-for-seed identical to
the original implementations; every output (labels, inter-edges,
rounds, frontier sizes) still is.  Regenerate only when an *intentional*
output or cost-model change is being made, and record the reason here:

* dense-round barrier depth: the pre-engine ``dense_round`` charged
  ``log2(n_vertices + 1)`` packing depth while every other round kernel
  charged ``log2(round_edges + 1)``; the engine routes all of them
  through ``end_round`` (satellite fix), so the fixture's *depth*
  numbers for the hybrid's ``bfsDense`` phase are compared with a
  tolerance instead of exactly (see the parity test).
* pull rounds charge no atomics: the pull sweep stops each unvisited
  vertex at its first frontier hit, one writer per vertex, and charges
  one ``scan`` only; it used to race every hit through ``first_winner``
  and charge one ``atomic`` per hit.  Each pull caller now charges its
  stores as one ``scatter`` of the winners (``ComponentLabelState``
  charged it twice).  The regeneration moved the pull rounds'
  ``atomic`` buckets, ``hybrid_bfs_cc``'s ``scatter`` buckets, the
  totals that sum them, and, since this regeneration re-captured it
  from the engine, the ``bfsDense|scan`` depth, still within the parity
  test's slack of the pre-engine value.  Outputs did not move.
* the BFS-tree layer (``parallel_bfs``, ``hybrid_bfs``) was deleted:
  no Table 2 row ran it.  The ``bfs/*`` entries lost their
  ``parallel_bfs`` and ``hybrid_bfs`` keys; every other key and entry
  is byte-identical.

Usage::

    PYTHONPATH=src:. python tests/golden/generate_decomp_parity.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from repro.connectivity import hybrid_bfs_cc  # noqa: E402
from repro.decomp import DECOMP_VARIANTS  # noqa: E402
from repro.pram.cost import tracking  # noqa: E402

from tests.conftest import _zoo  # noqa: E402

#: (beta, seed) combinations exercised per graph x variant.
COMBOS = [(0.2, 1), (0.35, 7)]

#: Zoo graphs the BFS-family parity entries run on (non-empty ones
#: with varied density so both directions and multi-component paths
#: are exercised).
BFS_GRAPHS = [
    "path", "star", "clique", "grid", "random", "gnm-sparse", "orkut", "union"
]

OUT_PATH = os.path.join(os.path.dirname(__file__), "decomp_parity.json")


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def capture_one(decomp_fn, graph, beta: float, seed: int) -> dict:
    """Run one decomposition under a fresh tracker; record everything."""
    with tracking() as t:
        dec = decomp_fn(graph, beta=beta, seed=seed)
    return {
        "labels_sha256": _digest(dec.labels),
        "inter_sha256": _digest(dec.inter_src, dec.inter_dst),
        "orig_sha256": _digest(dec.orig_src, dec.orig_dst),
        "num_inter_directed": dec.num_inter_directed,
        "num_components": dec.num_components,
        "num_rounds": dec.num_rounds,
        "frontier_sizes": dec.frontier_sizes,
        "edges_inspected": dec.edges_inspected,
        "dense_rounds": dec.dense_rounds,
        **_profile_dict(t),
    }


def _profile_dict(t) -> dict:
    work = {
        f"{ph}|{kind}": w
        for ph, kinds in sorted(t.phase_kind_work().items())
        for kind, w in sorted(kinds.items())
    }
    depth = {
        f"{ph}|{kind}": d
        for ph, kinds in sorted(t.phase_kind_depth().items())
        for kind, d in sorted(kinds.items())
    }
    return {
        "sync_count": t.sync_count,
        "total_work": t.total_work(),
        "total_depth": t.total_depth(),
        "work": work,
        "depth": depth,
    }


def capture_bfs(graph) -> dict:
    """Pin hybrid-BFS-CC: its outputs and cost profile must not drift."""
    with tracking() as t:
        res = hybrid_bfs_cc(graph)
    return {
        "hybrid_bfs_cc": {
            "labels_sha256": _digest(res.labels),
            "num_components": res.num_components,
            "iterations": res.iterations,
            **_profile_dict(t),
        }
    }


def main() -> None:
    fixture = {}
    zoo = _zoo()
    for gname, graph in zoo.items():
        for variant in ("min", "arb", "arb-hybrid"):
            fn = DECOMP_VARIANTS[variant]
            for beta, seed in COMBOS:
                key = f"{gname}/{variant}/beta={beta}/seed={seed}"
                fixture[key] = capture_one(fn, graph, beta, seed)
    for gname in BFS_GRAPHS:
        fixture[f"bfs/{gname}"] = capture_bfs(zoo[gname])
    with open(OUT_PATH, "w") as f:
        json.dump(fixture, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(fixture)} entries to {OUT_PATH}")


if __name__ == "__main__":
    main()
