"""Cross-validation: what RL008 flags statically really breaks.

The doctored fixture here is *one source string* staged under a
``src/repro/...`` path and linted (the rule must flag it), and its
defect is then reproduced against the real
:class:`~repro.runtime.session.Session` (the leaked claim must starve
the pool).  This pins the static rule to the runtime failure it was
built to prevent — a rule that stopped firing, or a defect that
stopped mattering, fails here first.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.reprolint import lint_paths, load_config
from repro.runtime.session import Session

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG = REPO_ROOT / "reprolint.toml"


def stage_and_lint(tmp_path: Path, rel: str, source: str):
    staged = tmp_path / "src" / "repro" / Path(rel)
    staged.parent.mkdir(parents=True, exist_ok=True)
    staged.write_text(source)
    report = lint_paths([staged], load_config(CONFIG), enforce_stale=False)
    return report.violations


RL008_FIXTURE = """\
def leaky_run(session, frontier):
    ws = session._claim_pool()
    if frontier is None:
        return None
    out = compute(ws, frontier)
    session._release_pool(ws)
    return out
"""


class TestRL008CrossValidation:
    def test_linter_flags_the_leaky_claim(self, tmp_path):
        hits = stage_and_lint(tmp_path, "runtime/leaky.py", RL008_FIXTURE)
        assert hits
        assert {v.rule for v in hits} == {"RL008"}
        assert all(v.qualname == "leaky_run" for v in hits)

    def test_runtime_consequence_is_a_starved_pool(self):
        sess = Session("random", scale="tiny", seed=2, backend="fast")
        with sess._lock:
            ws = sess._claim_pool()
        assert ws is not None
        # The leak RL008 prevents: the claim never released, so every
        # later run is silently pushed onto a fresh per-run arena.
        with sess._lock:
            assert sess._claim_pool() is None
        with sess._lock:
            sess._release_pool(ws)
            repaired = sess._claim_pool()
            sess._release_pool(repaired)
        assert repaired is not None
