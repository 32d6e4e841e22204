"""Deterministic mid-run fault injection for the connectivity stack.

The seed's failure-injection tests only cover *malformed inputs*; this
module attacks the algorithms **while they run**, the adversarial
treatment Liu-Tarjan argue concurrent labeling algorithms need: their
correctness under arbitrary schedules must be checked, not assumed.
A :class:`FaultPlan` is a seeded, reproducible schedule of corruptions
over four classes, each hooked at the layer where the real concurrency
hazard lives:

``cas_flip``
    Flip the winner of a simulated CAS race
    (:func:`repro.primitives.atomics.first_winner`) from the first
    contender to the *last* — another legal arbitrary-CRCW schedule.
    Provably benign: every labeling produced under any flip pattern
    must still verify (and the fault-matrix tests prove it does).
``drop_frontier``
    Silently remove vertices from a decomposition BFS frontier
    (:meth:`repro.decomp.base.DecompState.start_new_centers`).  A
    dropped vertex keeps its label but never expands, so its edges are
    never classified — lost connectivity the verifier must catch.
``shift_perturb``
    Perturb the exponential-shift start schedule
    (:meth:`repro.decomp.shifts.ShiftSchedule.cumulative`) by holding
    back a fraction of each early round's new centers.  Benign for
    correctness (any start schedule yields a valid decomposition) but
    degrades round counts — the stressor for :class:`RoundBudget`.
``label_corrupt``
    Overwrite a visited vertex's component label mid-round with another
    visited vertex's label (labels stay legal vertex ids, so the
    corruption survives contraction instead of crashing early).
    Merges partitions that may lie in different true components — the
    verifier's partition-equality check must catch it.

Plans are **armed for a bounded number of runs** (default 1): the
sabotaged attempt fails, the :class:`~repro.resilience.runner.
ResilientRunner` retries, and the retry executes clean — exactly the
recover-under-fault behavior the acceptance tests exercise.  All
randomness is drawn from a per-run ``numpy`` generator seeded with
``(seed, run_index)``, so a plan is bit-reproducible.

Hooks cost nothing when no plan is active (a single ``None`` check):
the armed plan rides in the
:class:`~repro.runtime.context.ExecutionContext` and production code
reads ``current_context().fault_plan`` once per round.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FaultSpecError

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "parse_fault_plan",
]

#: The corruption classes a plan may schedule.
FAULT_KINDS: Tuple[str, ...] = (
    "cas_flip",
    "drop_frontier",
    "shift_perturb",
    "label_corrupt",
)

#: shift_perturb only withholds centers during this many initial rounds,
#: guaranteeing every vertex is eventually released (termination).
_PERTURB_ROUND_LIMIT = 8


@dataclass
class FaultSpec:
    """One scheduled corruption.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Per-opportunity firing probability for the random modes
        (ignored when explicit targets are given).
    vertices:
        Explicit victim vertices (``drop_frontier``: dropped whenever
        they appear on a frontier; ``label_corrupt``: the vertex whose
        label is overwritten).
    label_from:
        ``label_corrupt`` only — the victim adopts ``C[label_from]``
        (another vertex's *current* label), keeping the corrupt label a
        live partition id.  ``None`` picks a random visited vertex.
    rounds:
        Restrict firing to these decomposition round indices (``None`` =
        any).  A restricted spec never fires outside a round, so a
        restricted ``cas_flip`` leaves contraction's hash table and the
        BFS baselines alone.
    max_fires:
        Stop firing after this many triggers (targeted corruptions
        default to firing once so tests are exactly reproducible).
    holdback:
        ``shift_perturb`` only — fraction of each early round's center
        quota withheld.
    """

    kind: str
    probability: float = 1.0
    vertices: Optional[Sequence[int]] = None
    label_from: Optional[int] = None
    rounds: Optional[Sequence[int]] = None
    max_fires: int = 1_000_000_000
    holdback: float = 0.5
    _fires: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if not 0.0 <= self.holdback <= 1.0:
            raise FaultSpecError(
                f"shift_perturb holdback must be in [0, 1], got {self.holdback}"
            )

    def applies(self, round_index: Optional[int]) -> bool:
        """Is this spec still live, and scheduled for *round_index*?

        ``None`` means outside any round: a spec restricted to *rounds*
        never applies there.
        """
        if self._fires >= self.max_fires:
            return False
        if self.rounds is not None:
            return round_index is not None and round_index in self.rounds
        return True

    def fired(self, times: int = 1) -> None:
        self._fires += times

    def reset(self) -> None:
        self._fires = 0


class FaultPlan:
    """A reproducible schedule of mid-run corruptions.

    Activate around one algorithm run with :meth:`activate`; the
    production hooks (``current_context().fault_plan`` readers) consult
    the innermost active plan.  The plan sabotages its first
    ``sabotage_runs`` activations and is inert afterwards, so a retry
    loop observes fail-then-recover.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        seed: int = 0,
        sabotage_runs: int = 1,
    ) -> None:
        self.specs = list(specs)
        self.seed = int(seed)
        self.sabotage_runs = int(sabotage_runs)
        self.run_index = 0
        #: Log of fired corruptions: {kind, run, round, detail} dicts,
        #: surfaced by the runner's failure log and the CLI.
        self.fired: List[Dict[str, object]] = []
        self._rng = np.random.default_rng(self.seed)
        self._active_depth = 0
        #: The decomposition round in progress: set at each round
        #: boundary, ``None`` outside rounds (contraction, the BFS
        #: baselines).  ``cas_flip`` reads it.
        self.round_index: Optional[int] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(
        cls, spec: str, seed: int = 0, sabotage_runs: int = 1
    ) -> "FaultPlan":
        """Parse a CLI spec string into a plan.

        Grammar: ``kind[:key=value[,key=value...]]`` joined by ``;``.
        List values use ``|`` separators.  Examples::

            cas_flip:p=0.5
            drop_frontier:vertices=10|11
            label_corrupt:vertex=3,label_from=40
            shift_perturb:holdback=0.8;cas_flip
        """
        specs: List[FaultSpec] = []
        for clause in filter(None, (c.strip() for c in spec.split(";"))):
            kind, _, argstr = clause.partition(":")
            kind = kind.strip()
            kwargs: Dict[str, object] = {}
            for item in filter(None, (a.strip() for a in argstr.split(","))):
                key, sep, value = item.partition("=")
                if not sep:
                    raise FaultSpecError(
                        f"fault option {item!r} is not key=value (in {clause!r})"
                    )
                key = key.strip()
                value = value.strip()
                try:
                    if key in ("p", "probability"):
                        kwargs["probability"] = float(value)
                    elif key == "holdback":
                        kwargs["holdback"] = float(value)
                    elif key in ("vertex", "vertices"):
                        kwargs["vertices"] = [int(v) for v in value.split("|")]
                    elif key == "label_from":
                        kwargs["label_from"] = int(value)
                    elif key in ("round", "rounds"):
                        kwargs["rounds"] = [int(v) for v in value.split("|")]
                    elif key == "max_fires":
                        kwargs["max_fires"] = int(value)
                    else:
                        raise FaultSpecError(
                            f"unknown fault option {key!r} (in {clause!r})"
                        )
                except ValueError as exc:
                    raise FaultSpecError(
                        f"bad value for fault option {key!r}: {value!r}"
                    ) from exc
            specs.append(FaultSpec(kind=kind, **kwargs))  # type: ignore[arg-type]
        if not specs:
            raise FaultSpecError(f"empty fault spec {spec!r}")
        return cls(specs, seed=seed, sabotage_runs=sabotage_runs)

    def describe(self) -> str:
        """One-line human summary for logs and the CLI."""
        parts = []
        for s in self.specs:
            bits = [s.kind]
            if s.vertices is not None:
                bits.append(f"vertices={list(s.vertices)}")
            elif s.probability < 1.0:
                bits.append(f"p={s.probability}")
            parts.append(" ".join(bits))
        return (
            f"FaultPlan(seed={self.seed}, sabotage_runs={self.sabotage_runs}: "
            + "; ".join(parts)
            + ")"
        )

    # -- activation --------------------------------------------------------

    @property
    def armed(self) -> bool:
        """True while an activation that should sabotage is in progress."""
        return self._active_depth > 0 and self.run_index <= self.sabotage_runs

    @contextlib.contextmanager
    def activate(self) -> Iterator["FaultPlan"]:
        """Arm the plan for one run (reproducible per-run RNG stream).

        Arming installs the plan on a derived
        :class:`~repro.runtime.context.ExecutionContext`, so it is
        exception-safe and scoped to the calling thread/task.
        """
        from repro.runtime.context import current_context

        self.run_index += 1
        self.round_index = None
        self._rng = np.random.default_rng((self.seed, self.run_index))
        for s in self.specs:
            s.reset()
        self._active_depth += 1
        try:
            with current_context().child(fault_plan=self).activate():
                yield self
        finally:
            self._active_depth -= 1

    def _live(self, kind: str, round_index: Optional[int] = None) -> List[FaultSpec]:
        if not self.armed:
            return []
        return [s for s in self.specs if s.kind == kind and s.applies(round_index)]

    def _record(self, kind: str, round_index: Optional[int], **detail: object) -> None:
        self.fired.append(
            {"kind": kind, "run": self.run_index, "round": round_index, **detail}
        )
        from repro.runtime.context import current_context

        current_context().metrics.incr(f"faults.{kind}")

    # -- hooks (called from production code) -------------------------------

    def perturb_cas(
        self, idx: np.ndarray, positions: np.ndarray, dests: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flip CAS winners to the *last* contender per destination.

        *idx* is the raw destination stream of the race; *positions*
        the first-occurrence winners :func:`first_winner` chose.  The
        flip stays within the set of legal contenders, so the result is
        just a different arbitrary-CRCW schedule.  A spec restricted to
        rounds fires only while :attr:`round_index` is one of them.
        """
        round_index = self.round_index
        specs = self._live("cas_flip", round_index)
        if not specs or dests.size == 0:
            return positions, dests
        # Last occurrence of each destination in the batch.
        rev_dests, rev_index = np.unique(idx[::-1], return_index=True)
        last = np.int64(idx.shape[0] - 1) - rev_index
        # np.unique sorts, so rev_dests == dests and rows align.
        contested = last != positions
        new_positions = positions
        total = 0
        for s in specs:
            flip = contested & (self._rng.random(dests.size) < s.probability)
            new_positions = np.where(flip, last, new_positions)
            fired = int(flip.sum())
            if fired:
                s.fired(fired)
                total += fired
        if total:
            self._record("cas_flip", round_index, flips=total)
        return new_positions.astype(np.int64, copy=False), dests

    def filter_frontier(
        self, frontier: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Drop scheduled / randomly selected vertices from a BFS frontier."""
        specs = self._live("drop_frontier", round_index)
        if not specs or frontier.size == 0:
            return frontier
        keep = np.ones(frontier.size, dtype=bool)
        for s in specs:
            if s.vertices is not None:
                hit = np.isin(frontier, np.asarray(list(s.vertices)))
            else:
                hit = self._rng.random(frontier.size) < s.probability
            fired = int((hit & keep).sum())
            if fired:
                keep &= ~hit
                s.fired(fired)
                self._record(
                    "drop_frontier",
                    round_index,
                    dropped=[int(v) for v in frontier[hit][:16]],
                )
        return frontier[keep]

    def perturb_cumulative(self, round_index: int, cum: int, n: int) -> int:
        """Withhold part of an early round's center quota (shift_perturb)."""
        if round_index >= _PERTURB_ROUND_LIMIT:
            return cum
        specs = self._live("shift_perturb", round_index)
        out = cum
        for s in specs:
            held = int(out * s.holdback)
            if held:
                out -= held
                s.fired()
                self._record("shift_perturb", round_index, held_back=held)
        return max(0, min(out, n))

    def corrupt_labels(
        self, C: np.ndarray, round_index: int, unvisited_sentinel: int
    ) -> None:
        """Overwrite visited vertices' labels in place (label_corrupt).

        Only already-visited vertices are touched (an unvisited vertex
        acquiring a label would desynchronize the visited counter and
        stall termination — we corrupt state, not the host loop), and
        the corrupt value is always another vertex's *current* label,
        so it stays a legal id for contraction.
        """
        specs = self._live("label_corrupt", round_index)
        if not specs:
            return
        visited = np.flatnonzero(C != unvisited_sentinel)
        if visited.size < 2:
            return
        for s in specs:
            if s.vertices is not None:
                victims = [
                    v
                    for v in s.vertices
                    if 0 <= v < C.size and C[v] != unvisited_sentinel
                ]
            else:
                fire = self._rng.random() < s.probability
                victims = (
                    [int(self._rng.choice(visited))] if fire else []
                )
            for v in victims:
                if s.label_from is not None:
                    src = s.label_from
                    if not (0 <= src < C.size) or C[src] == unvisited_sentinel:
                        continue  # source not visited yet; try a later round
                else:
                    src = int(self._rng.choice(visited))
                if src == v:
                    continue
                old = int(C[v])
                C[v] = C[src]
                s.fired()
                self._record(
                    "label_corrupt",
                    round_index,
                    vertex=int(v),
                    old_label=old,
                    new_label=int(C[src]),
                )


def parse_fault_plan(
    spec: Optional[str], seed: int = 0, sabotage_runs: int = 1
) -> Optional[FaultPlan]:
    """CLI-facing convenience: ``None``/empty spec means no plan."""
    if not spec:
        return None
    return FaultPlan.parse(spec, seed=seed, sabotage_runs=sabotage_runs)
