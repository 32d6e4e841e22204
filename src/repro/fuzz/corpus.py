"""The replayable crash corpus: shrunk failures as permanent artifacts.

Every failure the fuzzer shrinks is persisted as one JSON file (atomic
write via :mod:`repro.fsutil` — a crash mid-save never leaves a torn
repro).  The checked-in corpus lives in ``tests/fuzz_corpus/`` and is
replayed by ``tests/test_fuzz.py`` on every backend under the
sanitizer, so each found bug becomes a regression test the moment its
file lands; ``repro replay <case.json>`` replays one file from the
shell (docs/robustness.md describes the triage workflow).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import ParameterError
from repro.fsutil import atomic_write_text
from repro.fuzz.case import FuzzCase

__all__ = [
    "save_case",
    "load_case",
    "corpus_paths",
    "default_corpus_dir",
]

PathLike = Union[str, os.PathLike]


def default_corpus_dir() -> Path:
    """The checked-in corpus directory when run from a source checkout.

    Resolves ``tests/fuzz_corpus/`` relative to the repository root
    (two levels above the package); falls back to the current working
    directory's ``tests/fuzz_corpus`` for installed copies.
    """
    here = Path(__file__).resolve()
    for base in (here.parents[3], Path.cwd()):
        candidate = base / "tests" / "fuzz_corpus"
        if candidate.is_dir():
            return candidate
    return Path.cwd() / "tests" / "fuzz_corpus"


def save_case(
    directory: PathLike,
    case: FuzzCase,
    kinds: Tuple[str, ...] = (),
    note: str = "",
) -> Path:
    """Persist one case as ``<dir>/<kind>-<hash>.json`` (atomic).

    The filename keys on the case *content* hash, so re-finding the
    same shrunk failure overwrites rather than duplicates; the finding
    kinds and a free-form note ride along for triage.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    slug = kinds[0] if kinds else "case"
    path = directory / f"{slug}-{case.content_hash()}.json"
    payload = case.to_json()
    if kinds:
        payload["findings"] = list(kinds)
    if note:
        payload["note"] = note
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: PathLike) -> FuzzCase:
    """Load one corpus file; raises :class:`ParameterError` when unusable."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read fuzz case {p}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"{p} is not a fuzz case file")
    return FuzzCase.from_json(data)


def corpus_paths(directory: Optional[PathLike] = None) -> List[Path]:
    """The sorted case files of a corpus directory (default: checked-in)."""
    d = Path(directory) if directory is not None else default_corpus_dir()
    if not d.is_dir():
        return []
    return sorted(p for p in d.iterdir() if p.suffix == ".json")
