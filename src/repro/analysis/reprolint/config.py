"""``reprolint.toml`` loading: the justified allowlist.

The linter's suppression policy is deliberately narrow: a violation is
only silenced by a checked-in allowlist entry naming the exact *site*
(``file::qualname``) and rule id, and every entry must carry a
``reason`` — the justification the reviewer reads instead of the code
change that would fix it.  Entries that no longer suppress anything are
*stale* and fail the lint, so the allowlist cannot rot.

Config format::

    [[allow]]
    rule = "RL001"
    site = "src/repro/engine/kernels.py::arb_round"
    reason = "winners come from first_winner: distinct, claim-once"

Site files are repo-relative POSIX paths; matching is by path suffix,
so the linter works from any working directory.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.errors import LintConfigError

__all__ = ["AllowEntry", "LintConfig", "load_config"]

#: The rule ids the analyzer implements (see docs/static_analysis.md).
KNOWN_RULES = ("RL001", "RL003", "RL004", "RL008", "RL010")

#: The keys an ``[[allow]]`` table may carry.
_ENTRY_KEYS = frozenset({"rule", "site", "reason"})


@dataclass
class AllowEntry:
    """One justified suppression: (rule, site) with its reason."""

    rule: str
    site: str
    reason: str
    #: Violations this entry suppressed during the current lint run.
    hits: int = field(default=0, compare=False)

    @property
    def site_file(self) -> str:
        return self.site.partition("::")[0]

    @property
    def site_qualname(self) -> str:
        return self.site.partition("::")[2]

    def matches(self, path_key: str, rule: str, qualname: str) -> bool:
        """Suffix-match on the file path, exact match on rule + qualname."""
        if rule != self.rule or qualname != self.site_qualname:
            return False
        return path_key == self.site_file or path_key.endswith(
            "/" + self.site_file
        )


@dataclass
class LintConfig:
    """Parsed ``reprolint.toml`` (empty by default: no suppressions)."""

    allow: List[AllowEntry] = field(default_factory=list)
    source: Optional[Path] = None

    def suppresses(self, path_key: str, rule: str, qualname: str) -> bool:
        """Consume a violation if some entry covers it (counts the hit)."""
        for entry in self.allow:
            if entry.matches(path_key, rule, qualname):
                entry.hits += 1
                return True
        return False

    def stale_entries(self) -> List[AllowEntry]:
        """Entries that suppressed nothing in the last full run."""
        return [e for e in self.allow if e.hits == 0]

    def reset_hits(self) -> None:
        for entry in self.allow:
            entry.hits = 0


def _entry_lines(raw_text: str) -> List[int]:
    """1-based line number of each ``[[allow]]`` header, in order.

    tomllib discards positions, so the loader recovers them from the
    raw text; the i-th header annotates errors in the i-th entry.
    """
    lines: List[int] = []
    for lineno, line in enumerate(raw_text.splitlines(), start=1):
        if line.split("#", 1)[0].strip() == "[[allow]]":
            lines.append(lineno)
    return lines


def load_config(path: Path) -> LintConfig:
    """Load and validate a ``reprolint.toml``.

    Raises :class:`~repro.errors.LintConfigError` for unparseable TOML,
    unknown rule ids, malformed sites, unknown entry keys, or entries
    missing the required justification ``reason``.  Messages carry the
    ``file:line`` of the offending ``[[allow]]`` entry.
    """
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise LintConfigError(f"cannot read {path}: {exc}") from exc
    try:
        data = tomllib.loads(raw_bytes.decode("utf-8"))
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise LintConfigError(f"invalid TOML in {path}: {exc}") from exc

    lines = _entry_lines(raw_bytes.decode("utf-8", errors="replace"))

    entries: List[AllowEntry] = []
    raw_allow = data.get("allow", [])
    if not isinstance(raw_allow, list):
        raise LintConfigError(f"{path}: [allow] must be an array of tables")
    for i, raw in enumerate(raw_allow):
        where = (
            f"{path}:{lines[i]}: allow[{i}]"
            if i < len(lines)
            else f"{path}: allow[{i}]"
        )
        if not isinstance(raw, dict):
            raise LintConfigError(f"{where} is not a table")
        rule = raw.get("rule")
        site = raw.get("site")
        reason = raw.get("reason")
        extra = set(raw) - _ENTRY_KEYS
        if extra:
            raise LintConfigError(
                f"{where} has unknown keys {sorted(extra)} "
                f"(allowed: {', '.join(sorted(_ENTRY_KEYS))})"
            )
        if rule not in KNOWN_RULES:
            raise LintConfigError(
                f"{where} has unknown rule {rule!r} "
                f"(expected one of {', '.join(KNOWN_RULES)})"
            )
        if not isinstance(site, str) or "::" not in site:
            raise LintConfigError(
                f"{where} site must look like "
                f"'src/repro/...py::qualname', got {site!r}"
            )
        if not isinstance(reason, str) or not reason.strip():
            raise LintConfigError(
                f"{where} ({rule} at {site}) is missing its "
                "justification 'reason' — unexplained suppressions are "
                "not allowed (docs/static_analysis.md)"
            )
        entries.append(AllowEntry(rule=rule, site=site, reason=reason.strip()))

    unknown = set(data) - {"allow"}
    if unknown:
        raise LintConfigError(
            f"{path}: unknown top-level keys {sorted(unknown)}"
        )
    return LintConfig(allow=entries, source=path)
