"""Seeded workloads and the measurements the connectivity benchmark takes.

A workload is one input family plus one operation, run closed-loop: one
caller, and each run starts when the previous one returns.  Every layer
is measured from outside, by timing calls into public ``repro``
functions, so the numbers describe whatever the library defaults
resolve to (no backend or worker count is passed).  ``BENCHMARK.json``
lists the metric names, units and bounds; ``README.md`` says which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.verify import (
    ground_truth_labels,
    labelings_equivalent,
    verify_labeling,
)
from repro.decomp import DECOMP_VARIANTS, ShiftSchedule, contract
from repro.experiments.tables import run_table2
from repro.graphs import generators
from repro.graphs.csr import CSRGraph
from repro.obs import Metrics, Tracer, jsonable, phase_totals, write_trace
from repro.pram.cost import CostTracker
from repro.pram.machine import MachineModel
from repro.primitives import HashTable, first_winner, random_permutation, write_min
from repro.resilience.runner import ResilientRunner
from repro.runtime.context import current_context
from repro.runtime.session import execute_profiled

__all__ = ["WORKLOADS", "Workload", "result_line", "run_workload", "summary"]

Graphs = Dict[str, CSRGraph]


def _rmat(scale: int, seed: int) -> CSRGraph:
    # The paper's rMat density: 3.7 generated directed edges per vertex.
    return generators.rmat(scale, int(3.7 * (1 << scale)), seed=seed)


def _sweep_graphs(seed: int, shrink: int) -> Graphs:
    """The six Table-1 graphs at 1/32 of the registry's ``small`` sizes.

    At the registry's own ``small`` sizes one sweep takes about 7 s,
    too long to collect a median and a tail inside one run.  At 1/32 a
    sweep takes about 0.23 s and keeps the ``small`` mix: serial-SF
    about 20 %, hybrid-BFS-CC + multistep-CC about 34 % (most of it on
    ``line``), the four decomp rows about 38 %.  rMat2 keeps 512
    vertices: it is the dense input, and fewer would make it a clique.
    """
    rmat2_scale = 9 - shrink // 2
    return {
        "random": generators.random_kregular(3125 >> shrink, 5, seed=seed),
        "rMat": _rmat(12 - shrink, seed),
        "rMat2": generators.rmat(rmat2_scale, 400 << rmat2_scale, seed=seed),
        "3D-grid": generators.grid3d(round(13 / 2 ** (shrink / 3)), seed=seed),
        "line": generators.line_graph(1562 >> shrink, seed=seed),
        "com-Orkut": generators.orkut_like(937 >> shrink, 76.0, seed=seed),
    }


@dataclass(frozen=True)
class Workload:
    """One input family and the algorithm run on it.

    ``build(seed, shrink)`` makes one input instance; *shrink* halves
    the vertex counts that many times (tests pass a few, the benchmark
    passes 0).  A workload seed S yields *instances* of them, built with
    seeds ``S * instances + j``, and timed run i uses instance
    ``i % instances``: where run time varies with the random graph,
    several instances per run keep one unlucky graph from moving the
    median.  ``sweep`` workloads run the Table-2 sweep; the others run
    *algorithm* once per run.  The traced run and the level walk run
    *algorithm* on ``graphs[trace_graph]`` of instance 0.  Why each
    workload was chosen is recorded in ``BENCHMARK.json`` and
    ``README.md``.
    """

    build: Callable[[int, int], Graphs]
    algorithm: str
    trace_graph: str
    sweep: bool = False
    instances: int = 1


WORKLOADS: Dict[str, Workload] = {
    "rmat-arb": Workload(
        lambda seed, shrink: {"rMat": _rmat(18 - shrink, seed)},
        "decomp-arb-CC",
        "rMat",
    ),
    "orkut-hybrid": Workload(
        lambda seed, shrink: {
            "com-Orkut": generators.orkut_like(30_000 >> shrink, 76.0, seed=seed)
        },
        "decomp-arb-hybrid-CC",
        "com-Orkut",
        # The round count varies by about 12 % between seeds of this graph.
        instances=2,
    ),
    "line-min": Workload(
        lambda seed, shrink: {
            "line": generators.line_graph(200_000 >> shrink, seed=seed)
        },
        "decomp-min-CC",
        "line",
    ),
    "table2-sweep": Workload(
        _sweep_graphs,
        "decomp-arb-CC",
        # The sweep's densest graph.  On its sparser ones, time outside
        # any phase (run set-up, per-round bookkeeping) exceeds 10 % of a
        # traced run, so the phase split would explain too little of it.
        "rMat2",
        sweep=True,
        # Modeled sweep time varies by about 4.5 % between seeds.
        instances=4,
    ),
}

#: Phase rows reported as per-layer metrics.  The variant-specific BFS
#: labels fold into one ``bfs`` row, so every workload reports the same
#: names and no measured row is a constant 0 (each variant enters only
#: some of the BFS labels); the unfolded labels stay in the detail.
PHASE_ROWS = ("init", "bfsPre", "bfs", "filterEdges", "contractGraph")
BFS_PHASES = ("bfsMain", "bfsSparse", "bfsDense", "bfsPhase1", "bfsPhase2")

#: decomp_cc's per-level seed strides, mirrored by the level walk.
LEVEL_SEED_STRIDE = 1000003
DEDUP_SEED_STRIDE = 7


#: About the median seconds of one :class:`Calibration` kernel call on
#: the box the committed results come from (2-core x86-64 VM, python
#: 3.11, numpy 2.4).
REFERENCE_S = 0.015


class Calibration:
    """A fixed kernel, outside ``repro``, that tracks machine speed.

    On a shared machine the speed of the same code drifts by 20-60 %
    over minutes, and slow spells of about a second come and go; both
    are far larger than the changes the benchmark must resolve.  The
    kernel runs between consecutive timed operations, and each
    operation's time is multiplied by ``REFERENCE_S`` over the mean of
    the kernel times just before and just after it, so end-to-end times
    read as seconds on the reference box at one fixed speed.  The kernel
    has three parts, each of which some workload leans on: a NumPy sort;
    a random gather from a 64 MB table, far larger than the cache, which
    tracks contention for memory bandwidth; and an interpreter loop,
    which tracks verification's Python BFS and per-round overhead.
    Measured against the three labeling workloads under load, this mix
    tracked them better than any one part or a cache-sized table.  It
    allocates nothing, so it leaves the allocator (and peak RSS) alone,
    and it calls no ``repro`` code, so no change to the library moves it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 62, size=1 << 17)
        self._sorted = np.empty_like(self._keys)
        self._table = rng.integers(0, 1 << 62, size=1 << 23)
        self._idx = rng.integers(0, 1 << 23, size=1 << 19)
        self._gathered = np.empty(self._idx.size, dtype=self._table.dtype)
        self.samples: List[float] = [self._kernel()]

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        np.copyto(self._sorted, self._keys)
        self._sorted.sort()
        np.take(self._table, self._idx, out=self._gathered)
        total = 0
        for i in range(100_000):
            total += i * i
        return time.perf_counter() - t0

    def tick(self) -> None:
        """Measure the kernel now, just before an operation."""
        self.samples.append(self._kernel())

    def scale(self) -> float:
        """Factor for the operation that ran since the previous measurement."""
        self.tick()
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)

    def median(self) -> float:
        return statistics.median(self.samples)


@dataclass
class Tally:
    """Checked outputs: every labeling or Table-2 cell is one attempt."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class OpResult:
    """One operation: outer wall, library-reported wall, outputs to check.

    ``outputs`` pairs a graph name with a labeling or, for Table-2 cells,
    a component count.  ``parts`` holds named sub-times (per algorithm
    for the sweep).
    """

    wall: float
    inner: float
    outputs: List[Tuple[str, object]]
    parts: Dict[str, float] = field(default_factory=dict)


def _labeling(
    algorithm: str, graph: CSRGraph, name: str, seed: int, verify: bool
) -> OpResult:
    t0 = time.perf_counter()
    prof = execute_profiled(
        algorithm, graph, graph_name=name, verify=verify, seed=seed
    )
    wall = time.perf_counter() - t0
    return OpResult(wall, prof.wall_seconds, [(name, prof.result.labels)])


def _sweep(graphs: Graphs, seed: int, verify: bool) -> OpResult:
    t0 = time.perf_counter()
    if verify:
        # The verified sweep is the resilient runner's: every cell goes
        # through verify_labeling, as ``repro table2 --retries`` pays.
        swept = ResilientRunner().run_table2(graphs=graphs, seed=seed)
        table = swept["table"]
        if swept["failures"]:
            raise RuntimeError(f"{len(swept['failures'])} sweep attempts failed")
    else:
        table = run_table2(graphs=graphs, seed=seed)
    wall = time.perf_counter() - t0
    parts = {a: sum(c["wall"] for c in row.values()) for a, row in table.items()}
    outputs = [
        (g, int(cell["components"]))
        for row in table.values()
        for g, cell in row.items()
    ]
    return OpResult(wall, sum(parts.values()), outputs, parts)


def _operation(workload: Workload, graphs: Graphs) -> Callable[[int, bool], OpResult]:
    if workload.sweep:
        return lambda seed, verify: _sweep(graphs, seed, verify)
    ((name, graph),) = graphs.items()
    return lambda seed, verify: _labeling(
        workload.algorithm, graph, name, seed, verify
    )


def _correct(output: object, truth: np.ndarray) -> bool:
    if isinstance(output, np.ndarray):
        return labelings_equivalent(output, truth)
    return output == (int(truth.max()) + 1 if truth.size else 0)


def _checked(
    tally: Tally, result: OpResult, truths: Dict[str, np.ndarray], what: str
) -> bool:
    oks = [
        tally.record(_correct(out, truths[g]), f"{what} on {g}")
        for g, out in result.outputs
    ]
    return all(oks)


def _attempt(
    op: Callable[[int, bool], OpResult],
    seed: int,
    verify: bool,
    truths: Dict[str, np.ndarray],
    tally: Tally,
) -> Optional[OpResult]:
    """Run and check one operation; ``None`` if it raised or was wrong.

    A failed run contributes no time.  This is the benchmark's failure
    boundary, so any exception is recorded and the loop goes on.
    """
    what = f"run seed={seed} verify={verify}"
    try:
        result = op(seed, verify)
    except Exception:
        traceback.print_exc()
        tally.record(False, what)
        return None
    return result if _checked(tally, result, truths, what) else None


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def _ns_per(fn: Callable[[], object], count: int, reps: int = 5) -> float:
    """Median nanoseconds per element of *reps* calls, after one warm-up."""
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / max(count, 1) * 1e9


def _primitives(graph: CSRGraph, seed: int) -> Dict[str, Dict[str, object]]:
    """Per-element cost of the kernels the rounds and contraction call."""
    n, m = graph.num_vertices, graph.num_directed
    ws = current_context().acquire_workspace(n)
    rng = np.random.default_rng(seed)
    idx = graph.targets
    values = rng.integers(0, 1 << 30, size=m, dtype=np.int64)
    dest = np.empty(n, dtype=np.int64)
    # More than half the keys are repeats, as contraction's inter-edges are.
    keys = rng.integers(0, m // 2 + 1, size=m, dtype=np.int64)
    frontier = np.arange(n, dtype=np.int64)

    def write_min_round() -> None:
        dest.fill(np.iinfo(np.int64).max)
        write_min(dest, idx, values, workspace=ws)

    timings = {
        "graphs.expand_ns_per_edge": _ns_per(
            lambda: graph.expand(frontier, workspace=ws), m
        ),
        "primitives.random_permutation_ns_per_elem": _ns_per(
            lambda: random_permutation(n, seed, stream=13), n
        ),
        "primitives.first_winner_ns_per_elem": _ns_per(
            lambda: first_winner(idx, workspace=ws), m
        ),
        "primitives.write_min_ns_per_elem": _ns_per(write_min_round, m),
        "primitives.hash_dedup_ns_per_key": _ns_per(
            lambda: HashTable(capacity=m, seed=seed).insert(keys), m
        ),
    }
    return {name: _metric(ns, "ns") for name, ns in timings.items()}


@contextlib.contextmanager
def _timed_span(
    tracer: Tracer, name: str, times: Dict[str, float], **args: object
) -> Iterator:
    t0 = time.perf_counter()
    with tracer.span(name, cat="bench", **args) as span:
        yield span
    times[name] = time.perf_counter() - t0


def level_walk(
    tracer: Tracer, graph: CSRGraph, variant: str, beta: float, mode: str, seed: int
) -> List[Dict[str, object]]:
    """Replay ``decomp_cc``'s levels from outside, one span per call.

    Level i calls ``ShiftSchedule`` on its own (the cost of ``init``'s
    schedule), then the variant and ``contract`` with decomp_cc's
    seeds.  Each level runs under its own cost tracker, so its modeled
    seconds per phase sit next to its measured spans.
    """
    decompose = DECOMP_VARIANTS[variant]
    levels: List[Dict[str, object]] = []
    current = graph
    while True:
        i = len(levels)
        level_seed = seed + LEVEL_SEED_STRIDE * i
        tracker = CostTracker()
        times: Dict[str, float] = {}
        with _timed_span(tracer, "level", times, level=i) as span:
            with _timed_span(tracer, "shifts", times):
                ShiftSchedule(
                    n=current.num_vertices, beta=beta, seed=level_seed, mode=mode
                )
            with current_context().child(tracker=tracker).activate():
                with _timed_span(tracer, "decomp", times):
                    dec = decompose(current, beta, seed=level_seed, schedule_mode=mode)
                with _timed_span(tracer, "contract", times), tracker.phase(
                    "contractGraph"
                ):
                    con = contract(
                        dec,
                        current.num_vertices,
                        dedup_seed=seed + DEDUP_SEED_STRIDE * i,
                    )
            row = {
                "level": i,
                "n": current.num_vertices,
                "m": current.num_edges,
                "rounds": dec.num_rounds,
                "inter_edges": dec.num_inter_directed // 2,
                "edges_inspected": dec.edges_inspected,
            }
            span.set(**row)
        children = times["shifts"] + times["decomp"] + times["contract"]
        row.update(
            shifts_s=times["shifts"],
            decomp_s=times["decomp"],
            contract_s=times["contract"],
            level_s=times["level"],
            self_s=times["level"] - children,
            work=tracker.total_work(),
            depth=tracker.total_depth(),
            modeled_s=MachineModel().phase_seconds(tracker),
        )
        levels.append(row)
        if con.is_base_case:
            return levels
        current = con.graph


def _fold(phases: Dict[str, float]) -> Dict[str, float]:
    folded = {row: phases.get(row, 0.0) for row in PHASE_ROWS}
    folded["bfs"] = sum(phases.get(p, 0.0) for p in BFS_PHASES)
    return folded


def _traced(
    workload: Workload,
    graphs: Graphs,
    truths: Dict[str, np.ndarray],
    seed: int,
    tally: Tally,
    out_dir: Optional[Path],
    name: str,
) -> Tuple[Dict[str, Dict[str, object]], Dict[str, object]]:
    """Per-layer metrics from traced runs, a level walk and microbenches.

    Of three traced runs, the one with the median wall time gives the
    phase split and the trace: a labeling on the sweep's graphs takes
    about 2 ms, so one slow spell can distort a single run's split.
    """
    gname = workload.trace_graph
    graph, algorithm = graphs[gname], workload.algorithm
    untraced = [
        _labeling(algorithm, graph, gname, seed, verify=False).wall for _ in range(3)
    ]
    traced = []
    for _ in range(3):
        tracer, metrics = Tracer(), Metrics()
        with current_context().child(tracer=tracer, metrics=metrics).activate():
            t0 = time.perf_counter()
            prof = execute_profiled(
                algorithm, graph, graph_name=gname, verify=False, seed=seed
            )
            wall = time.perf_counter() - t0
        tally.record(
            labelings_equivalent(prof.result.labels, truths[gname]), "traced run"
        )
        traced.append((wall, tracer, metrics, prof))
    traced_wall, tracer, metrics, prof = sorted(traced, key=lambda run: run[0])[1]
    phases = phase_totals(tracer)
    modeled = MachineModel().phase_seconds(prof.tracker)

    stats = prof.result.stats
    variant = algorithm[len("decomp-") : -len("-CC")]
    levels = level_walk(
        tracer, graph, variant, stats["beta"], stats["schedule_mode"], seed
    )
    walk_edges = [row["m"] for row in levels]
    tally.record(
        walk_edges == list(prof.result.edges_per_iteration),
        f"level walk edges {walk_edges} vs {prof.result.edges_per_iteration}",
    )

    t0 = time.perf_counter()
    verify_labeling(graph, prof.result.labels)
    verify_s = time.perf_counter() - t0

    shifts = sum(row["shifts_s"] for row in levels)
    bfs = sum(row["decomp_s"] - row["shifts_s"] for row in levels)
    contracted = sum(row["contract_s"] for row in levels)
    walk = sum(row["level_s"] for row in levels)
    rounds = sum(row["rounds"] for row in levels)
    work = prof.tracker.total_work()
    layer = {
        "decomp.levels": _metric(len(levels), "count"),
        "decomp.rounds": _metric(rounds, "count"),
        "decomp.us_per_round": _metric(bfs / max(rounds, 1) * 1e6, "us"),
        "decomp.inter_edge_frac": _metric(
            levels[0]["inter_edges"] / max(levels[0]["m"], 1), "ratio"
        ),
        "decomp.edges_inspected": _metric(
            sum(row["edges_inspected"] for row in levels), "count"
        ),
        "decomp.shifts.s": _metric(shifts, "s"),
        "decomp.shifts.share": _metric(shifts / walk, "ratio"),
        "decomp.bfs_s": _metric(bfs, "s"),
        "decomp.contract.s": _metric(contracted, "s"),
        "decomp.contract.share": _metric(contracted / walk, "ratio"),
        "pram.work": _metric(work, "count"),
        "pram.depth": _metric(prof.tracker.total_depth(), "count"),
        "pram.work_per_nm": _metric(
            work / (graph.num_vertices + graph.num_edges), "ratio"
        ),
        "pram.modeled_s_1": _metric(prof.seconds_at(1), "model_s"),
        "pram.modeled_s_40h": _metric(prof.seconds_at("40h"), "model_s"),
        "obs.overhead_frac": _metric(
            traced_wall / statistics.median(untraced) - 1.0, "ratio"
        ),
        "obs.phase_coverage": _metric(
            sum(phases.values()) / prof.wall_seconds, "ratio"
        ),
        "analysis.verify.s": _metric(verify_s, "s"),
    }
    for row, value in _fold(phases).items():
        layer[f"obs.phase.{row}_s"] = _metric(value, "s")
    for row, value in _fold(modeled).items():
        layer[f"pram.phase.{row}_modeled_s"] = _metric(value, "model_s")
    layer.update(_primitives(graph, seed))

    detail = {
        "traced": {"algorithm": algorithm, "graph": gname, "seed": seed},
        "phases_s": phases,
        "phases_modeled_s": modeled,
        "edges_per_iteration": list(prof.result.edges_per_iteration),
        "levels": levels,
    }
    if out_dir is not None:
        write_trace(
            out_dir / f"{name}.trace.json",
            tracer,
            metrics,
            meta={"workload": name, **detail["traced"], "levels": levels},
        )
    return layer, detail


def environment() -> Dict[str, object]:
    """The machine and the library defaults the numbers were taken with."""
    ctx = current_context()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "backend": ctx.backend.name,
        "workers": ctx.workers,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Optional[Path] = None,
    *,
    shrink: int = 0,
    min_runs: int = 3,
    verified_runs: int = 5,
    setup_reps: int = 3,
    import_s: float = 0.0,
) -> Dict[str, object]:
    """Set up, time and check one workload; return its result record.

    Set-up builds the inputs and runs the first operation on them
    *setup_reps* times (``setup_s`` is the median), then computes the
    ground truth once, outside any timing.  The timed loop runs for
    *seconds* (and at least *min_runs* runs); run i uses algorithm seed
    ``seed + i`` on instance ``i % instances``.  The tail is the 80th
    percentile: the sweep's 35-50 runs leave 7-10 samples beyond it.
    End-to-end times are scaled by the
    :class:`Calibration` kernel measured around each operation; the raw
    seconds stay in the detail.  With *trace*, a traced run, a level
    walk and kernel microbenchmarks follow, after the untraced timings.
    """
    workload = WORKLOADS[name]
    k = workload.instances
    tally, calibration = Tally(), Calibration()
    builds, setups, raw_setups, firsts = [], [], [], []
    for _ in range(setup_reps):
        t0 = time.perf_counter()
        instances = [workload.build(seed * k + j, shrink) for j in range(k)]
        t1 = time.perf_counter()
        firsts.append(_operation(workload, instances[0])(seed, False))
        raw_setups.append(time.perf_counter() - t0)
        setups.append(raw_setups[-1] * calibration.scale())
        builds.append(t1 - t0)
    truths = [
        {g: ground_truth_labels(graph) for g, graph in graphs.items()}
        for graphs in instances
    ]
    for first in firsts:
        _checked(tally, first, truths[0], "set-up run")
    ops = [_operation(workload, graphs) for graphs in instances]

    runs, raw_runs, overheads = [], [], []
    parts: Dict[str, List[float]] = {}
    calibration.tick()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_runs or time.perf_counter() < deadline:
        result = _attempt(ops[i % k], seed + i, False, truths[i % k], tally)
        factor = calibration.scale()
        i += 1
        if result is not None:
            raw_runs.append(result.wall)
            runs.append(result.wall * factor)
            overheads.append((result.wall - result.inner) / result.wall)
            for part, value in result.parts.items():
                parts.setdefault(part, []).append(value)
    verified, raw_verified = [], []
    for j in range(verified_runs):
        result = _attempt(ops[j % k], seed + j, True, truths[j % k], tally)
        factor = calibration.scale()
        if result is not None:
            raw_verified.append(result.wall)
            verified.append(result.wall * factor)
    if not runs or not verified:
        raise RuntimeError(f"{name}: every timed or verified run failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    end_to_end = {
        metric: _metric(value, "s")
        for metric, value in _timings(runs, verified, setups).items()
    }
    end_to_end["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
    record: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "meta": environment(),
        "samples": {
            "timed": len(runs),
            "verified": len(verified),
            "setup": setup_reps,
            "instances": k,
        },
        "end_to_end": end_to_end,
        "detail": {
            "raw_s": _timings(raw_runs, raw_verified, raw_setups),
            "calibration_s": calibration.median(),
            "graphs": [
                {g: {"n": G.num_vertices, "m": G.num_edges} for g, G in graphs.items()}
                for graphs in instances
            ],
            "algorithm_s": {p: statistics.median(v) for p, v in parts.items()},
        },
    }
    if trace:
        layer, detail = _traced(
            workload, instances[0], truths[0], seed, tally, out_dir, name
        )
        layer["graphs.build_s"] = _metric(statistics.median(builds), "s")
        layer["runtime.import_s"] = _metric(import_s, "s")
        layer["runtime.overhead_frac"] = _metric(
            statistics.median(overheads), "ratio"
        )
        record["per_layer"] = dict(sorted(layer.items()))
        record["detail"].update(detail)
    record.update(
        correct=tally.failed == 0, attempted=tally.attempted, failed=tally.failed
    )
    record = jsonable(record)
    if out_dir is not None:
        (out_dir / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def _timings(
    runs: List[float], verified: List[float], setups: List[float]
) -> Dict[str, float]:
    return {
        "run_s_p50": statistics.median(runs),
        "run_s_p80": float(np.percentile(runs, 80)),
        "verified_run_s": statistics.median(verified),
        "setup_s": statistics.median(setups),
    }


def result_line(record: Dict[str, object]) -> Dict[str, object]:
    """The driver's last line: per-layer metrics when traced, else end-to-end."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer"] if record["trace"] else record["end_to_end"],
    }


def summary(record: Dict[str, object]) -> str:
    """Human-readable lines: every metric with its unit, phases by level."""
    lines = [
        f"workload {record['workload']} seed {record['seed']}: "
        f"{record['attempted']} checked, {record['failed']} failed, "
        f"samples {record['samples']}, backend {record['meta']['backend']}, "
        f"calibration kernel {record['detail']['calibration_s']:.5f} s"
    ]
    for section in ("end_to_end", "per_layer"):
        for metric, m in record.get(section, {}).items():
            lines.append(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    for row in record["detail"].get("levels", []):
        lines.append(
            "  level {level}: n={n} m={m} rounds={rounds} inter={inter_edges} "
            "shifts={shifts_s:.4f}s decomp={decomp_s:.4f}s "
            "contract={contract_s:.4f}s self={self_s:.4f}s".format(**row)
        )
    return "\n".join(lines)
