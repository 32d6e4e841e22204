"""Shared machinery for the three DECOMP implementations.

A decomposition run produces a :class:`Decomposition`: per-vertex
component labels (each label is the id of the component's BFS center),
the directed inter-component edges expressed as label pairs (the paper
relabels edge endpoints to component ids on the fly, so the contraction
phase never revisits the original edge array), and per-round statistics
that feed the analysis module and Figures 4-7.

The helpers here implement the parts all variants share verbatim:
parameter validation, consuming the shift schedule ("bfsPre" — new
centers are appended to the single shared frontier array) and
assembling the result.  :class:`DecompState` is the decomposition
family's :class:`~repro.engine.core.TraversalState`, and
:func:`run_decomposition` is the one function every variant calls:
it builds the state, runs a :class:`~repro.engine.core.TraversalEngine`
under the variant's two policies and assembles the result.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.decomp.shifts import ShiftSchedule
from repro.engine.core import (
    UNVISITED,
    TraversalEngine,
    TraversalState,
    end_round,
    label_dtype,
)
from repro.engine.kernels import dense_round, filter_edges
from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.resilience.policy import RoundBudget
from repro.runtime.context import current_context

if TYPE_CHECKING:
    from repro.engine.direction import DirectionPolicy
    from repro.engine.tiebreak import TiebreakPolicy

__all__ = [
    "Decomposition",
    "DecompState",
    "UNVISITED",
    "run_decomposition",
    "validate_beta",
]


def validate_beta(beta: float) -> None:
    """Reject out-of-range decomposition parameters (shared by all variants).

    The paper's analysis needs ``0 < beta < 1``: beta = 0 never starts
    new centers, beta >= 1 starts everything at once.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0,1), got {beta}")


#: ``(inter_src, inter_dst, orig_src, orig_dst)`` chunk lists, aligned.
KeptChunks = Tuple[
    List[np.ndarray], List[np.ndarray], List[np.ndarray], List[np.ndarray]
]


class Decomposition:
    """Result of one low-diameter decomposition.

    Attributes
    ----------
    labels:
        ``labels[v]`` is the id of the BFS center whose partition owns
        ``v``; every vertex is owned (isolated vertices own themselves).
    inter_src / inter_dst:
        Directed inter-component edges as *label* pairs — for each
        surviving directed edge (u, w), the pair
        ``(labels[u], labels[w])`` with the two differing.  Both
        orientations of every surviving undirected edge appear, as in
        the paper's symmetric edge storage.
    orig_src / orig_dst:
        The original endpoints (u, w) of each surviving edge, aligned
        with ``inter_src``/``inter_dst``.  Lets contraction carry a
        representative original edge per contracted edge, which the
        spanning-forest extraction (paper footnote 1's converse) needs
        to map tree edges of the contracted graph back to real edges.
    num_rounds:
        BFS rounds executed (the paper's O(log n / beta) bound).
    frontier_sizes:
        Vertices on the frontier per round.
    edges_inspected:
        Directed edge inspections charged during the BFS phases —
        differs between variants (the hybrid's early exits) and is what
        the breakdown figures visualise.
    dense_rounds:
        Round indices the hybrid ran read-based (empty for min/arb).

    The four inter-edge arrays are int64 and are built on first read.
    A decomposition run keeps its surviving edges as the chunks its
    rounds recorded them in (:attr:`kept`: the labels in the level's
    narrow label type, the endpoints in int64), and contraction forms
    its pair keys from those chunks and reads the endpoint arrays only
    at its representatives.  Built from plain arrays, the decomposition
    holds them as one chunk.
    """

    def __init__(
        self,
        labels: np.ndarray,
        inter_src: np.ndarray,
        inter_dst: np.ndarray,
        orig_src: np.ndarray,
        orig_dst: np.ndarray,
        num_rounds: int,
        frontier_sizes: Optional[List[int]] = None,
        edges_inspected: int = 0,
        dense_rounds: Optional[List[int]] = None,
    ) -> None:
        self.labels = labels
        self.kept: KeptChunks = ([inter_src], [inter_dst], [orig_src], [orig_dst])
        self.num_rounds = num_rounds
        self.frontier_sizes = frontier_sizes if frontier_sizes is not None else []
        self.edges_inspected = edges_inspected
        self.dense_rounds = dense_rounds if dense_rounds is not None else []

    @classmethod
    def from_chunks(
        cls,
        labels: np.ndarray,
        kept: KeptChunks,
        num_rounds: int,
        frontier_sizes: List[int],
        edges_inspected: int,
        dense_rounds: List[int],
    ) -> "Decomposition":
        """A decomposition over the chunk lists a :class:`DecompState` kept."""
        empty = np.zeros(0, dtype=np.int64)
        dec = cls(
            labels, empty, empty, empty, empty, num_rounds,
            frontier_sizes, edges_inspected, dense_rounds,
        )  # fmt: skip
        dec.kept = kept
        return dec

    @cached_property
    def inter_src(self) -> np.ndarray:
        return joined(self.kept[0])

    @cached_property
    def inter_dst(self) -> np.ndarray:
        return joined(self.kept[1])

    @cached_property
    def orig_src(self) -> np.ndarray:
        return joined(self.kept[2])

    @cached_property
    def orig_dst(self) -> np.ndarray:
        return joined(self.kept[3])

    @property
    def num_inter_directed(self) -> int:
        """Directed inter-component edge count (2x the undirected count)."""
        return sum(int(chunk.size) for chunk in self.kept[0])

    @property
    def num_components(self) -> int:
        return int(np.unique(self.labels).size) if self.labels.size else 0

    def component_sizes(self) -> np.ndarray:
        """Sizes of the partitions, in ascending center-id order."""
        if self.labels.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.labels, minlength=self.labels.size)[
            np.unique(self.labels)
        ]


def joined(chunks: List[np.ndarray]) -> np.ndarray:
    """The concatenation of *chunks*, in int64 (a lone int64 chunk as is)."""
    if len(chunks) == 1:
        return chunks[0].astype(np.int64, copy=False)
    if not chunks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(chunks, dtype=np.int64)


class DecompState(TraversalState):
    """Mutable per-run state shared by the decomposition main loops.

    Owns the component array ``C`` (the paper's C / C2), the schedule,
    the shared frontier, and the growing inter-edge output lists.
    ``C`` holds only ``UNVISITED`` and vertex ids, so it is kept in
    :func:`~repro.engine.core.label_dtype` (``n``), the smallest signed
    type that holds them, and every round streams its labels in that
    type.  The kept edges' labels stay in that type too
    (:meth:`keep_inter`); only the labels :meth:`finish` returns are
    widened to int64.  As a
    :class:`~repro.engine.core.TraversalState` it plugs into the
    :class:`~repro.engine.core.TraversalEngine`: ``begin_round`` is the
    center-seeding / resilience boundary (:meth:`start_new_centers`),
    ``push_round`` delegates to the configured tie-break policy, and
    ``pull_round`` is the read-based sweep whose inspected edges are
    deferred to the ``filterEdges`` pass in :meth:`finalize`.

    The state resolves the active context once, when it is built (once
    per contraction level): ``tracker``, ``plan`` (the armed fault
    plan), ``sanitizer`` and ``workspace``.  The round kernels read
    those attributes instead of the context var, so a state runs under
    the context it was built in.
    """

    def __init__(
        self,
        graph: CSRGraph,
        beta: float,
        seed: int,
        mode: str,
        budget: Optional[RoundBudget] = None,
        algorithm: str = "decomp",
    ) -> None:
        if not graph.symmetric:
            raise ParameterError("decomposition requires a symmetric graph")
        self.graph = graph
        n = graph.num_vertices
        self.budget = (
            budget
            if budget is not None
            else RoundBudget.for_decomposition(n, beta, algorithm=algorithm)
        )
        ctx = current_context()
        self.tracker = tracker = ctx.tracker
        self.plan = ctx.fault_plan
        self.sanitizer = ctx.sanitizer
        # The backend's gather and race strategy for the round kernels.
        # Never charged — it changes how rounds run, not what they
        # compute or cost.
        self.workspace = ctx.backend.workspace
        with tracker.phase("init"):
            self.schedule = ShiftSchedule(
                n=n, beta=beta, seed=seed, mode=mode  # type: ignore[arg-type]
            )
            self.C = np.full(n, UNVISITED, dtype=label_dtype(n))
            tracker.add("alloc", work=float(n), depth=1.0)
        self.frontier = np.zeros(0, dtype=np.int64)
        self.consumed = 0
        self.visited = 0
        self.round = 0
        self.inter_src_chunks: List[np.ndarray] = []
        self.inter_dst_chunks: List[np.ndarray] = []
        self.orig_src_chunks: List[np.ndarray] = []
        self.orig_dst_chunks: List[np.ndarray] = []
        self.frontier_sizes: List[int] = []
        self.edges_inspected = 0
        self.dense_rounds: List[int] = []
        #: Frontiers of the read-based rounds, whose out-edges await
        #: the post-loop filterEdges classification.
        self.deferred: List[np.ndarray] = []
        #: The level's storage-order label stream (a copy of the labels
        #: it read, differing positions, per-vertex firsts), once a
        #: drain round or filterEdges has run it; see
        #: ``engine.kernels._label_stream``.
        self.label_stream: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    @property
    def visited_count(self) -> int:
        """Vertices owned by some component so far (engine interface)."""
        return self.visited

    @property
    def done(self) -> bool:
        """All vertices visited and all frontier work drained."""
        return self.visited >= self.n and self.frontier.size == 0

    # -- engine interface ---------------------------------------------------

    def initial_frontier(self) -> np.ndarray:
        return np.zeros(0, dtype=np.int64)

    def shared_arrays(self) -> dict:
        return {"C": self.C}

    def begin_round(self, engine: TraversalEngine, next_frontier: np.ndarray) -> None:
        self.start_new_centers(next_frontier)

    def note_dense_round(self) -> None:
        self.dense_rounds.append(self.round)
        self.deferred.append(self.frontier)

    def push_round(self, engine: TraversalEngine) -> np.ndarray:
        return engine.tiebreak.push_round(self, engine)

    def pull_round(self, engine: TraversalEngine) -> np.ndarray:
        with self.tracker.phase("bfsDense"):
            return dense_round(self)

    def finalize(self, engine: TraversalEngine) -> None:
        # A no-op (and charge-free) pass for push-only runs; for the
        # hybrids it classifies every edge the dense rounds skipped.
        with self.tracker.phase("filterEdges"):
            filter_edges(self, self.deferred)

    def start_new_centers(self, next_frontier: np.ndarray) -> None:
        """The "bfsPre" step: pull due candidates, start the unvisited ones.

        New BFS centers set ``C[v] = v`` and are appended to the end of
        the shared frontier array, after the vertices discovered last
        round — exactly the frontier layout of the paper's
        implementation.

        This is also the round boundary, so two resilience hooks live
        here: the :class:`RoundBudget` check (a runaway loop raises a
        structured :class:`~repro.errors.ConvergenceError` instead of
        spinning) and the frontier/label fault-injection points of an
        armed :class:`~repro.resilience.faults.FaultPlan`, which is told
        the round index here so that its round-restricted ``cas_flip``
        specs fire in this round's races only.
        """
        self.budget.check(self.round)
        tracker, plan = self.tracker, self.plan
        if plan is not None:
            plan.round_index = self.round
        with tracker.phase("bfsPre"):
            cum = self.schedule.cumulative(self.round, plan)
            # A shift_perturb fault may move cum below what was consumed:
            # then nothing is due and the quota resumes from cum.
            due = max(0, cum - self.consumed)
            tracker.add("gather", work=float(due), depth=1.0)
            frontier = next_frontier
            if due:
                candidates = self.schedule.order[self.consumed : cum]
                fresh = candidates[self.C[candidates] == UNVISITED]
                if fresh.size:
                    if self.sanitizer is not None:
                        # Self-claim seeding: distinct unvisited vertices,
                        # single writer each — declared, so the shadow
                        # check knows these cells changed legally.
                        self.sanitizer.record_write(self.C, fresh)
                    # Stored in C's type: a casting store costs more.
                    self.C[fresh] = fresh.astype(self.C.dtype)
                    tracker.add("scatter", work=float(fresh.size), depth=1.0)
                    self.visited += int(fresh.size)
                    frontier = np.concatenate((next_frontier, fresh))
            self.consumed = cum
            if plan is not None:
                frontier = plan.filter_frontier(frontier, self.round)
                plan.corrupt_labels(self.C, self.round, UNVISITED)
            self.frontier = frontier
            self.frontier_sizes.append(int(frontier.size))
            end_round(packing="unit", tracker=tracker)

    def keep_inter(
        self,
        src_labels: np.ndarray,
        dst_labels: np.ndarray,
        orig_src: np.ndarray,
        orig_dst: np.ndarray,
    ) -> None:
        """Record surviving (inter-component) directed edges, as one chunk.

        *src_labels*/*dst_labels* are the relabeled (component-id)
        endpoints, kept in ``C``'s type; *orig_src*/*orig_dst* the
        original vertex pair, kept so contraction can nominate
        representative real edges.
        """
        if src_labels.size:
            self.inter_src_chunks.append(src_labels)
            self.inter_dst_chunks.append(dst_labels)
            self.orig_src_chunks.append(orig_src)
            self.orig_dst_chunks.append(orig_dst)

    def finish(self) -> Decomposition:
        """Assemble the result after the main loop drains.

        The kept chunks pass to the result as they are; its int64
        inter-edge arrays are built only when read.
        """
        return Decomposition.from_chunks(
            self.C.astype(np.int64),
            (
                self.inter_src_chunks,
                self.inter_dst_chunks,
                self.orig_src_chunks,
                self.orig_dst_chunks,
            ),
            num_rounds=self.round,
            frontier_sizes=self.frontier_sizes,
            edges_inspected=self.edges_inspected,
            dense_rounds=self.dense_rounds,
        )


def run_decomposition(
    graph: CSRGraph,
    beta: float,
    seed: int,
    schedule_mode: str,
    round_budget: Optional[RoundBudget],
    algorithm: str,
    direction: "DirectionPolicy",
    tiebreak: "TiebreakPolicy",
) -> Decomposition:
    """Run one decomposition variant: a (direction, tie-break) pair.

    Validates *beta*, builds the :class:`DecompState` (whose default
    round budget is named after *algorithm*), drives the engine and
    returns the assembled :class:`Decomposition`.
    """
    validate_beta(beta)
    state = DecompState(
        graph, beta, seed, schedule_mode, budget=round_budget, algorithm=algorithm
    )
    try:
        TraversalEngine(state, direction=direction, tiebreak=tiebreak).run()
    finally:
        if state.plan is not None:
            # Outside the rounds again (contraction's hash table races next).
            state.plan.round_index = None
    return state.finish()
