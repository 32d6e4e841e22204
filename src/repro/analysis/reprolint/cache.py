"""Incremental lint cache keyed by file content hash.

``repro lint`` on an unchanged tree should cost one hash per file, not
one analysis per rule: the cache stores, per path key, the SHA-256 of
the file's bytes, the rule set that ran, and the **pre-allowlist**
violations (plus any parse error).  Storing raw violations — before
suppression — keeps two properties:

* editing ``reprolint.toml`` never invalidates the cache (suppression
  is re-applied on every run, so stale-entry detection stays exact);
* a cache hit replays byte-identical findings, so ``--format sarif``
  output is stable across warm runs.

Entries also record :data:`LINT_VERSION`; bump it whenever a rule's
behavior changes so stale caches self-invalidate.  The cache file is
JSON next to the config (``.reprolint-cache.json``), git-ignored, and
best-effort: unreadable or corrupt caches are treated as empty.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .rules import Violation

__all__ = ["LINT_VERSION", "LintCache", "CACHE_BASENAME"]

#: Bump on any rule-behavior change; mismatched entries are ignored.
LINT_VERSION = 3

CACHE_BASENAME = ".reprolint-cache.json"


@dataclass
class LintCache:
    """Content-hash keyed store of per-file raw lint results."""

    path: Optional[Path] = None
    #: path_key -> {"sha": ..., "rules": [...], "version": int,
    #:              "violations": [...], "parse_error": str | None}
    entries: Dict[str, dict] = field(default_factory=dict)
    hits: int = field(default=0, compare=False)
    misses: int = field(default=0, compare=False)
    _dirty: bool = field(default=False, compare=False)

    @classmethod
    def load(cls, path: Optional[Path]) -> "LintCache":
        cache = cls(path=path)
        if path is None:
            return cache
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return cache
        if (
            isinstance(data, dict)
            and data.get("version") == LINT_VERSION
            and isinstance(data.get("files"), dict)
        ):
            cache.entries = data["files"]
        return cache

    @staticmethod
    def digest(content: bytes) -> str:
        return hashlib.sha256(content).hexdigest()

    def lookup(
        self, path_key: str, sha: str, rules: Sequence[str]
    ) -> Optional[Tuple[List[Violation], Optional[str]]]:
        """Cached ``(raw violations, parse error)`` or None on a miss."""
        entry = self.entries.get(path_key)
        if (
            not isinstance(entry, dict)
            or entry.get("sha") != sha
            or entry.get("version") != LINT_VERSION
            or entry.get("rules") != list(rules)
        ):
            self.misses += 1
            return None
        try:
            violations = [
                Violation(**item) for item in entry.get("violations", [])
            ]
        except TypeError:
            self.misses += 1
            return None
        self.hits += 1
        parse_error = entry.get("parse_error")
        return violations, parse_error if isinstance(parse_error, str) else None

    def store(
        self,
        path_key: str,
        sha: str,
        rules: Sequence[str],
        violations: Sequence[Violation],
        parse_error: Optional[str],
    ) -> None:
        self.entries[path_key] = {
            "sha": sha,
            "version": LINT_VERSION,
            "rules": list(rules),
            "violations": [vars(v) for v in violations],
            "parse_error": parse_error,
        }
        self._dirty = True

    def save(self) -> None:
        """Best-effort write-back (read-only checkouts stay readable)."""
        if self.path is None or not self._dirty:
            return
        payload = {"version": LINT_VERSION, "files": self.entries}
        try:
            self.path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        except OSError:
            return
        self._dirty = False
