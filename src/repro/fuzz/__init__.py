"""Differential fuzzing for the connectivity stack (docs/robustness.md).

The repo's five interchangeable implementations, two execution
backends, PRAM race sanitizer and labeling verifier together form a
differential oracle; this package drives adversarial, seed-determined
inputs through it, delta-debugs every failure to a minimal repro, and
persists the result as a replayable crash corpus
(``tests/fuzz_corpus/``).  Shell entry points: ``repro fuzz`` and
``repro replay``.
"""

from repro.fuzz.case import (
    CASE_FORMAT,
    CaseConfig,
    CaseGraph,
    FuzzCase,
    build_case_graph,
)
from repro.fuzz.corpus import (
    corpus_paths,
    default_corpus_dir,
    load_case,
    save_case,
)
from repro.fuzz.generator import FUZZ_ALGORITHMS, CaseGenerator
from repro.fuzz.harness import FuzzFailure, FuzzReport, fuzz_run
from repro.fuzz.oracle import BENIGN_FAULT_KINDS, CaseOutcome, Finding, run_case
from repro.fuzz.planted import PLANTED_BUGS, PlantedBug, get_planted_bug
from repro.fuzz.shrink import ShrinkResult, shrink_case

__all__ = [
    "CASE_FORMAT",
    "CaseConfig",
    "CaseGraph",
    "FuzzCase",
    "build_case_graph",
    "corpus_paths",
    "default_corpus_dir",
    "load_case",
    "save_case",
    "FUZZ_ALGORITHMS",
    "CaseGenerator",
    "FuzzFailure",
    "FuzzReport",
    "fuzz_run",
    "BENIGN_FAULT_KINDS",
    "CaseOutcome",
    "Finding",
    "run_case",
    "PLANTED_BUGS",
    "PlantedBug",
    "get_planted_bug",
    "ShrinkResult",
    "shrink_case",
]
