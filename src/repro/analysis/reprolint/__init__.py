"""reprolint: the PRAM-invariant static analyzer (``repro lint``).

Four per-function AST rules machine-check the disciplines the
reproduction's guarantees rest on (see docs/static_analysis.md for the
catalog):

* **RL001** — shared-array writes in ``engine/``, ``decomp/``,
  ``connectivity/`` route through ``primitives.atomics`` or appear in
  the justified kernel registry (``reprolint.toml``);
* **RL003** — edge-expanding kernels charge the cost tracker on every
  post-expand return path;
* **RL004** — no ``np.random`` global state or wall-clock reads in
  simulation code;
* **RL010** — the tracing layer (``repro.obs``) never mutates what it
  observes.

The runtime complement — the PRAM race sanitizer behind the global
``--sanitize`` flag — lives in :mod:`repro.pram.sanitizer`.
"""

from repro.analysis.reprolint.config import (
    KNOWN_RULES,
    AllowEntry,
    LintConfig,
    load_config,
)
from repro.analysis.reprolint.linter import (
    RULE_SCOPES,
    LintReport,
    default_lint_root,
    discover_config,
    lint_paths,
    path_key_for,
    rules_for_path,
    run_lint,
)
from repro.analysis.reprolint.rules import RULE_CHECKERS, RULE_DOCS, Violation

__all__ = [
    "KNOWN_RULES",
    "AllowEntry",
    "LintConfig",
    "load_config",
    "RULE_SCOPES",
    "LintReport",
    "default_lint_root",
    "discover_config",
    "lint_paths",
    "path_key_for",
    "rules_for_path",
    "run_lint",
    "RULE_CHECKERS",
    "RULE_DOCS",
    "Violation",
]
