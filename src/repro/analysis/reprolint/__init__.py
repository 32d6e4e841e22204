"""reprolint: the PRAM-invariant static analyzer (``repro lint``).

Five rules machine-check the disciplines the reproduction's
guarantees rest on (see docs/static_analysis.md for the catalog).
The syntactic family (per-function AST patterns):

* **RL001** — shared-array writes in ``engine/``, ``decomp/``,
  ``connectivity/`` route through ``primitives.atomics`` or appear in
  the justified kernel registry (``reprolint.toml``);
* **RL003** — edge-expanding kernels charge the cost tracker on every
  post-expand return path;
* **RL004** — no ``np.random`` global state or wall-clock reads in
  simulation code;
* **RL010** — the tracing layer (``repro.obs``) never mutates what it
  observes.

The flow rule (per-function CFG + dataflow; see
:mod:`~repro.analysis.reprolint.cfg` and
:mod:`~repro.analysis.reprolint.dataflow`):

* **RL008** — every contextvar token ``set`` is ``reset`` on every
  CFG path, including exceptional ones.

The static half's runtime complement — the PRAM race sanitizer behind
the global ``--sanitize`` flag — lives in :mod:`repro.pram.sanitizer`
(re-exported here for discoverability).
"""

from repro.analysis.reprolint.cfg import CFG, CFGNode, build_cfg
from repro.analysis.reprolint.config import (
    KNOWN_RULES,
    AllowEntry,
    LintConfig,
    load_config,
)
from repro.analysis.reprolint.dataflow import run_forward
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
from repro.analysis.reprolint.rules import RULE_CHECKERS, Violation
from repro.analysis.reprolint.rules_flow import FLOW_RULE_CHECKERS, RULE_DOCS
from repro.analysis.reprolint.sarif import to_sarif, validate_sarif
from repro.pram.sanitizer import (  # noqa: F401  (discoverability re-export)
    PramSanitizer,
    RaceReport,
    sanitizing,
)

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
    "Violation",
    "FLOW_RULE_CHECKERS",
    "RULE_DOCS",
    "CFG",
    "CFGNode",
    "build_cfg",
    "run_forward",
    "to_sarif",
    "validate_sarif",
    "PramSanitizer",
    "RaceReport",
    "sanitizing",
]
