"""Regenerate the golden kept-edge fixture.

The fixture ``kept_edges.json`` pins, for every graph x decomposition
variant x fault of :func:`cases`, what one sanitized ``decomp_cc`` run
observes: the final labels, and per level the decomposition's labels,
its four inter-edge arrays as read (values, dtype and order),
``num_inter_directed``, ``edges_inspected``, ``frontier_sizes``,
``dense_rounds`` and ``num_rounds``, plus the contraction's outputs
(pairs, representatives, renamings, contracted CSR); then the tracker
snapshot, ``sync_count``, the sanitizer's races and the fault log.
``tests/test_kept_chunks.py`` replays every case under both backends
and asserts each matches its entry.

It was captured from the implementation that widened every kept label
chunk to int64 as the rounds kept it and concatenated the chunks when
the level finished, so the suite proves that keeping the chunks
compact, and building the arrays only when read, changes none of it.
Regenerate only for an intentional output or cost-model change, and
record the reason here.

Usage::

    PYTHONPATH=src:. python tests/golden/generate_kept_edges.py
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from repro.engine.backend import resolve_backend  # noqa: E402
from repro.graphs.csr import CSRGraph  # noqa: E402
from repro.graphs.generators import orkut_like, random_gnm  # noqa: E402
from repro.pram.cost import CostTracker  # noqa: E402
from repro.pram.sanitizer import PramSanitizer  # noqa: E402
from repro.resilience.faults import parse_fault_plan  # noqa: E402
from repro.runtime.context import current_context  # noqa: E402

from tests.conftest import _zoo  # noqa: E402

# The module, not the function the package re-exports under its name.
decomp_cc_module = importlib.import_module("repro.connectivity.decomp_cc")

VARIANTS = ["arb", "arb-hybrid", "min", "min-hybrid"]

FAULTS = [None, "label_corrupt:p=0.5", "cas_flip:p=1.0"]

OUT_PATH = os.path.join(os.path.dirname(__file__), "kept_edges.json")


#: The algorithm seed of every run but the dense graph's.
SEED = 7

#: At this seed the dense graph's level 0 keeps 47,728-60,560 directed
#: edges between 2 partitions under every variant.
DENSE_SEED = 5


def graphs() -> Dict[str, CSRGraph]:
    """The zoo, the label-type boundaries and a many-copies dense graph.

    128/129 and 32,768/32,769 vertices straddle the int8/int16 and
    int16/int32 label types; the dense graph's level 0 keeps many
    copies of few component pairs (at :data:`DENSE_SEED`).
    """
    out = dict(_zoo())
    for n, m, seed in ((128, 200, 3), (129, 200, 4), (32_768, 40_000, 5),
                       (32_769, 40_000, 6)):
        out[f"gnm-{n}"] = random_gnm(n, m, seed=seed)
    out["dense"] = orkut_like(4000, 40.0, seed=2)
    return out


def cases() -> Iterator[Tuple[str, CSRGraph, str, Optional[str], int]]:
    """``(key, graph, variant, fault, seed)`` of every fixture entry."""
    for name, graph in graphs().items():
        seed = DENSE_SEED if name == "dense" else SEED
        for variant in VARIANTS:
            for fault in FAULTS:
                yield f"{name}/{variant}/{fault}", graph, variant, fault, seed


def _digest(*arrays: np.ndarray) -> str:
    """Digest of the arrays' dtypes and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _text_digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _level(dec, con) -> dict:
    arrays = (dec.inter_src, dec.inter_dst, dec.orig_src, dec.orig_dst)
    return {
        "labels": _digest(dec.labels),
        "inter_edges": _digest(*arrays),
        "dtypes": [a.dtype.str for a in arrays],
        "num_inter_directed": dec.num_inter_directed,
        "edges_inspected": dec.edges_inspected,
        "frontier_sizes": list(dec.frontier_sizes),
        "dense_rounds": list(dec.dense_rounds),
        "num_rounds": dec.num_rounds,
        "contraction": _digest(
            con.edge_pairs,
            con.rep_src,
            con.rep_dst,
            con.vertex_to_component,
            con.component_to_sub,
            con.sub_to_component,
            con.graph.offsets,
            con.graph.targets,
        ),
        "num_components": con.num_components,
    }


def capture(
    graph: CSRGraph, variant: str, backend: str, fault: Optional[str], seed: int
) -> Tuple[dict, List[tuple]]:
    """One sanitized ``decomp_cc`` run: its record and its levels.

    The levels are the ``(decomposition, contraction, dedup_seed)`` of
    each contraction, for callers that contract them again.
    """
    levels: List[tuple] = []
    contract = decomp_cc_module.contract

    def recording(dec, num_vertices, remove_duplicates=True, dedup_seed=0x5EED):
        con = contract(dec, num_vertices, remove_duplicates, dedup_seed)
        levels.append((dec, con, dedup_seed))
        return con

    sanitizer = PramSanitizer(halt_on_race=False)
    ctx = current_context().child(
        tracker=CostTracker(), backend=resolve_backend(backend), sanitizer=sanitizer
    )
    plan = parse_fault_plan(fault, seed=4)
    decomp_cc_module.contract = recording
    try:
        with ctx.activate(), plan.activate() if plan else nullcontext():
            result = decomp_cc_module.decomp_cc(
                graph, beta=0.2, variant=variant, seed=seed
            )
    finally:
        decomp_cc_module.contract = contract
    snapshot = sorted(
        [phase, kind, work, depth]
        for (phase, kind), (work, depth) in ctx.tracker.snapshot().items()
    )
    record = {
        "labels": _digest(result.labels),
        "num_levels": len(levels),
        "levels": _text_digest([_level(dec, con) for dec, con, _seed in levels]),
        "tracker": _text_digest(snapshot),
        "sync_count": ctx.tracker.sync_count,
        "races": _text_digest([repr(race) for race in sanitizer.races]),
        "num_races": len(sanitizer.races),
        "faults": _text_digest(plan.fired if plan else None),
    }
    return record, levels


def main() -> None:
    fixture = {}
    for key, graph, variant, fault, seed in cases():
        reference, _ = capture(graph, variant, "reference", fault, seed)
        fast, _ = capture(graph, variant, "fast", fault, seed)
        if fast != reference:
            raise SystemExit(f"{key}: the backends disagree")
        fixture[key] = reference
    with open(OUT_PATH, "w") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fixture)} entries to {OUT_PATH}")


if __name__ == "__main__":
    main()
