"""Wall-clock benchmarking of the execution backends.

The simulated cost model answers "what would this cost on a CRCW
PRAM?"; this module answers the orthogonal engineering question "how
long does the NumPy simulation itself take?" — the number the
``fast`` execution backend (:mod:`repro.engine.backend`) exists to
shrink.  It times

* the hot kernels in isolation (CAS-race resolution, the stable radix
  permutation, frontier expansion, hash-table dedup) under each
  backend, and
* end-to-end connectivity (``decomp-arb-CC``) on a few paper graphs
  under each backend, cross-checking that the labelings are
  bit-identical — timing runs double as parity evidence.

:func:`run_wallclock_suite` packages both into one JSON-shaped dict
(written to ``BENCH_wallclock.json`` by ``benchmarks/bench_wallclock.py``,
which also asserts the speedup floor).  See docs/performance.md for how
to read the output.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.connectivity import decomp_cc
from repro.engine.backend import (
    BACKENDS,
    DEFAULT_BACKEND_NAME,
    use_backend,
)
from repro.engine.workspace import Workspace, make_workspace
from repro.experiments.registry import build_graph
from repro.graphs.generators import random_kregular
from repro.pram.cost import tracking
from repro.primitives.atomics import first_winner
from repro.primitives.hashing import dedup
from repro.primitives.sort import radix_argsort
from repro.runtime.context import current_context

__all__ = [
    "DEFAULT_GRAPHS",
    "DEFAULT_WARMUP",
    "best_of",
    "kernel_microbench",
    "end_to_end_bench",
    "run_wallclock_suite",
    "trace_run",
    "write_json",
]

#: End-to-end graphs: the paper input the fast backend targets (rMat's
#: many components stress every layer), a dense single-component input,
#: and a mesh.
DEFAULT_GRAPHS: List[str] = ["rMat", "random", "3D-grid"]

#: Kernel-microbench problem size per scale preset (stream length 2n).
_SCALE_N = {"tiny": 1 << 14, "small": 1 << 17, "medium": 1 << 20}

def _environment_meta() -> Dict[str, object]:
    """The machine/context facts every bench artifact must record."""
    ctx = current_context()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "context": {
            "backend": ctx.backend.name,
            "sanitize": ctx.sanitizer is not None,
            "fault_plan": ctx.fault_plan is not None,
            "seed": ctx.seed,
        },
    }


#: Discarded warmup iterations before any timed repeat (see best_of).
DEFAULT_WARMUP = 1


def best_of(fn: Callable[[], object], repeats: int, warmup: int = DEFAULT_WARMUP) -> float:
    """Best (minimum) wall-clock seconds of *repeats* calls of *fn*.

    Minimum-of-k is the standard noise filter for single-process
    benchmarks: every source of interference only ever adds time.  But
    min-of-k cannot filter what every repeat shares — and it filters
    *nothing* at ``repeats=1`` (the ``--quick`` CI mode), where the
    cold first call IS the reported number.  So the first *warmup*
    calls run untimed and are discarded: they pay the one-time costs
    (arena allocation, NumPy internal setup, cache warm-in) the
    steady-state regime the benchmarks compare does not contain.
    """
    for _ in range(max(0, warmup)):
        fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _timed_backends(
    make_fn: Callable[[str], Callable[[], object]],
    repeats: int,
    backends: Sequence[str],
) -> Dict[str, float]:
    """Time one kernel under each backend (warmup + best-of, per backend).

    :func:`best_of`'s discarded warmup lets the fast backend's arena
    reach steady state — the regime the backend optimizes — and
    equalizes any one-time NumPy costs for the reference side.
    """
    out: Dict[str, float] = {}
    for name in backends:
        with use_backend(name):
            out[name] = best_of(make_fn(name), repeats)
    return out


def kernel_microbench(
    scale: str = "small",
    repeats: int = 3,
    backends: Sequence[str] = ("reference", "fast"),
    seed: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Per-kernel seconds under each backend, plus the speedup ratio.

    Returns ``{kernel: {backend: seconds, ..., "speedup": ref/fast}}``.
    All kernels compute identical outputs under every backend (pinned
    by ``tests/test_backend_parity.py``); only the wall-clock differs.
    """
    n = _SCALE_N.get(scale, _SCALE_N["small"])
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=2 * n).astype(np.int64)
    keys = rng.integers(0, n, size=2 * n).astype(np.int64)
    graph = random_kregular(n, k=8, seed=seed)
    frontier = np.arange(n, dtype=np.int64)

    def make_first_winner(name: str) -> Callable[[], object]:
        ws = make_workspace(BACKENDS[name], n)
        return lambda: first_winner(idx, workspace=ws)

    def make_argsort(name: str) -> Callable[[], object]:
        return lambda: radix_argsort(keys, max_key=n - 1)

    def make_expand(name: str) -> Callable[[], object]:
        ws = Workspace(n) if BACKENDS[name].use_workspace else None
        return lambda: graph.expand(frontier, workspace=ws)

    def make_dedup(name: str) -> Callable[[], object]:
        return lambda: dedup(keys)

    kernels = {
        "first_winner": make_first_winner,
        "radix_argsort": make_argsort,
        "expand": make_expand,
        "hash_dedup": make_dedup,
    }
    out: Dict[str, Dict[str, float]] = {}
    for kname, make_fn in kernels.items():
        times = _timed_backends(make_fn, repeats, backends)
        times["speedup"] = (
            times["reference"] / times["fast"]
            if times.get("fast", 0.0) > 0 and "reference" in times
            else float("nan")
        )
        out[kname] = times
    return out


def end_to_end_bench(
    scale: str = "small",
    repeats: int = 3,
    graphs: Optional[Sequence[str]] = None,
    backends: Sequence[str] = ("reference", "fast"),
    beta: float = 0.2,
    seed: int = 1,
) -> Dict[str, Dict[str, float]]:
    """End-to-end ``decomp-arb-CC`` seconds per graph per backend.

    Each timed run executes under a fresh cost tracker (as profiled
    runs do).  The labelings produced under every backend are asserted
    bit-identical before any number is reported — a wrong fast backend
    can never produce a "speedup".
    """
    graphs = list(graphs) if graphs is not None else list(DEFAULT_GRAPHS)
    out: Dict[str, Dict[str, float]] = {}
    for gname in graphs:
        graph = build_graph(gname, scale)
        labels: Dict[str, np.ndarray] = {}

        def make_run(name: str) -> Callable[[], object]:
            def run():
                with tracking():
                    result = decomp_cc(graph, beta=beta, seed=seed)
                labels[name] = result.labels
                return result

            return run

        times = _timed_backends(make_run, repeats, backends)
        first, *rest = backends
        for other in rest:
            if not np.array_equal(labels[first], labels[other]):
                raise AssertionError(
                    f"backend parity violated on {gname}: "
                    f"{first} and {other} labelings differ"
                )
        times["speedup"] = (
            times["reference"] / times["fast"]
            if times.get("fast", 0.0) > 0 and "reference" in times
            else float("nan")
        )
        out[gname] = times
    return out


def run_wallclock_suite(
    scale: str = "small",
    repeats: int = 3,
    graphs: Optional[Sequence[str]] = None,
    backends: Sequence[str] = ("reference", "fast"),
    beta: float = 0.2,
    seed: int = 1,
) -> Dict[str, object]:
    """The full wall-clock trajectory: kernels + end-to-end, one dict.

    JSON-shaped; ``benchmarks/bench_wallclock.py`` writes it to
    ``BENCH_wallclock.json`` and asserts the speedup floors.  ``meta``
    records the execution environment (python/numpy versions, platform)
    and the ambient execution-context configuration, so archived bench
    artifacts are comparable across machines and context setups.
    """
    meta: Dict[str, object] = {
        "scale": scale,
        "repeats": repeats,
        "warmup": DEFAULT_WARMUP,
        "beta": beta,
        "seed": seed,
        "backends": list(backends),
        "default_backend": DEFAULT_BACKEND_NAME,
        "algorithm": "decomp-arb-CC",
        "timer": "best-of wall clock (time.perf_counter), discarded warmup",
    }
    meta.update(_environment_meta())
    return {
        "meta": meta,
        "kernels": kernel_microbench(
            scale=scale, repeats=repeats, backends=backends, seed=seed
        ),
        "end_to_end": end_to_end_bench(
            scale=scale,
            repeats=repeats,
            graphs=graphs,
            backends=backends,
            beta=beta,
            seed=seed,
        ),
    }


def trace_run(
    scale: str = "small",
    graph_name: str = "rMat",
    beta: float = 0.2,
    seed: int = 1,
    path: Optional[str] = None,
) -> Dict[str, object]:
    """One traced ``decomp-arb-CC`` run: per-phase wall seconds + trace file.

    Runs a single profiled end-to-end connectivity run with an active
    :class:`repro.obs.Tracer`, optionally writes the Perfetto-loadable
    trace document to *path*, and returns ``{"phase_seconds": {...},
    "rounds": int, "events": int}`` — the wall-clock-per-phase
    breakdown ``benchmarks/bench_wallclock.py --trace`` attaches to the
    BENCH meta, so the archived artifact says *where* the end-to-end
    seconds went, not just how many there were.
    """
    from repro.obs import Metrics, Tracer, phase_totals, write_trace
    from repro.runtime.session import execute_profiled

    graph = build_graph(graph_name, scale)
    tracer, metrics = Tracer(), Metrics()
    with current_context().child(tracer=tracer, metrics=metrics).activate():
        prof = execute_profiled(
            "decomp-arb-CC", graph, graph_name=graph_name, beta=beta, seed=seed
        )
    summary: Dict[str, object] = {
        "graph": graph_name,
        "scale": scale,
        "phase_seconds": phase_totals(tracer),
        "rounds": len(tracer.spans("round")),
        "events": len(tracer.events),
        "wall_seconds": prof.wall_seconds,
    }
    if path is not None:
        meta = dict(summary)
        meta.update(
            {
                "algorithm": "decomp-arb-CC",
                "beta": beta,
                "seed": seed,
                "work": prof.tracker.total_work(),
                "depth": prof.tracker.total_depth(),
            }
        )
        write_trace(path, tracer, metrics, meta=meta)
    return summary


def write_json(payload: Dict[str, object], path: str) -> None:
    """Write *payload* as stable, human-diffable JSON."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
