"""The fuzz loop: sample, judge, shrink, persist, report.

:func:`fuzz_run` drives the whole differential-fuzzing subsystem: a
seeded :class:`~repro.fuzz.generator.CaseGenerator` streams cases into
the :mod:`~repro.fuzz.oracle`, failures are delta-debugged by the
:mod:`~repro.fuzz.shrink` module and persisted to a corpus directory as
replayable JSON repros.  The returned :class:`FuzzReport` is
deterministic for a given (seed, max_cases): it carries no timestamps
or wall-clock readings, so two identical invocations produce identical
reports (the acceptance contract, pinned by ``tests/test_fuzz.py``).

The wall clock appears in exactly one role — the ``time_budget``
stopping condition for CI smoke jobs — and never in a case, a verdict
or the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.fuzz.corpus import save_case
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.oracle import run_case
from repro.fuzz.planted import get_planted_bug
from repro.fuzz.shrink import shrink_case

__all__ = ["FuzzFailure", "FuzzReport", "fuzz_run"]

PathLike = Union[str, "Path"]


@dataclass
class FuzzFailure:
    """One failing case, as the report records it."""

    case_id: str
    kinds: Tuple[str, ...]
    detail: str
    shrunk_vertices: Optional[int] = None
    shrunk_edges: Optional[int] = None
    repro_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Deterministic summary of one fuzz session."""

    seed: int
    cases_run: int = 0
    cases_planned: int = 0
    detections: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    stopped_by_budget: bool = False
    algorithm_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "cases_run": self.cases_run,
            "cases_planned": self.cases_planned,
            "detections": self.detections,
            "stopped_by_budget": self.stopped_by_budget,
            "algorithm_counts": dict(sorted(self.algorithm_counts.items())),
            "failures": [
                {
                    "case_id": f.case_id,
                    "kinds": list(f.kinds),
                    "detail": f.detail,
                    "shrunk_vertices": f.shrunk_vertices,
                    "shrunk_edges": f.shrunk_edges,
                    "repro_path": f.repro_path,
                }
                for f in self.failures
            ],
        }

    def format_lines(self) -> List[str]:
        """Human-readable report (deterministic, no timings)."""
        lines = [
            f"fuzz seed  : {self.seed}",
            f"cases      : {self.cases_run} run / {self.cases_planned} planned"
            + (" (stopped by time budget)" if self.stopped_by_budget else ""),
            f"detections : {self.detections} injected faults caught",
            f"failures   : {len(self.failures)}",
        ]
        for f in self.failures:
            size = (
                f" (shrunk to {f.shrunk_vertices}v/{f.shrunk_edges}e)"
                if f.shrunk_vertices is not None
                else ""
            )
            lines.append(f"  {f.case_id} [{', '.join(f.kinds)}]{size}")
            lines.append(f"    {f.detail}")
            if f.repro_path:
                lines.append(f"    repro: {f.repro_path}")
        return lines


def fuzz_run(
    seed: int,
    max_cases: int = 100,
    time_budget: Optional[float] = None,
    shrink: bool = True,
    planted: Optional[str] = None,
    corpus_dir: Optional[PathLike] = None,
    shrink_budget: int = 2000,
) -> FuzzReport:
    """Run one fuzz session; returns the (deterministic) report.

    Parameters
    ----------
    seed:
        Case-stream seed; the whole session is a pure function of it
        (plus ``max_cases``) unless the time budget trips first.
    max_cases:
        Number of generated cases to judge.
    time_budget:
        Optional wall-clock cap in seconds (CI smoke); crossing it
        stops *between* cases, never mid-case.
    shrink:
        Delta-debug failing cases down to minimal repros.
    planted:
        Name of a deliberate bug (:mod:`repro.fuzz.planted`) applied to
        matching algorithms — the pipeline's self-test hook.
    corpus_dir:
        Where shrunk repros are written (one JSON file per failure);
        ``None`` keeps everything in memory.
    shrink_budget:
        Max oracle evaluations per shrink search.
    """
    if planted is not None:
        get_planted_bug(planted)  # fail fast on typos
    generator = CaseGenerator(seed)
    report = FuzzReport(seed=int(seed), cases_planned=int(max_cases))
    deadline = (
        time.monotonic() + float(time_budget) if time_budget is not None else None
    )
    for index in range(int(max_cases)):
        if deadline is not None and time.monotonic() >= deadline:
            report.stopped_by_budget = True
            break
        case = generator.case(index)
        report.algorithm_counts[case.config.algorithm] = (
            report.algorithm_counts.get(case.config.algorithm, 0) + 1
        )
        outcome = run_case(case, planted=planted)
        report.cases_run += 1
        if outcome.detected:
            report.detections += 1
        if outcome.passed:
            continue
        detail = "; ".join(str(f) for f in outcome.findings[:3])
        failure = FuzzFailure(
            case_id=case.case_id, kinds=outcome.kinds(), detail=detail
        )
        final_case = case
        if shrink:
            shrunk = shrink_case(
                case, planted=planted, max_evaluations=shrink_budget
            )
            if shrunk.kinds:
                final_case = shrunk.case
                if shrunk.case.graph.kind == "edges":
                    failure.shrunk_vertices = shrunk.case.graph.num_vertices
                    failure.shrunk_edges = len(shrunk.case.graph.edges)
        if corpus_dir is not None:
            if planted is not None:
                # Keep the planted bug in the repro so the file replays
                # its failure standalone.
                final_case = final_case.with_config(
                    replace(final_case.config, planted=planted)
                )
            path = save_case(
                Path(corpus_dir),
                final_case,
                kinds=failure.kinds,
                note=f"found by repro fuzz --seed {seed} (case {case.case_id})",
            )
            failure.repro_path = str(path)
        report.failures.append(failure)
    return report
