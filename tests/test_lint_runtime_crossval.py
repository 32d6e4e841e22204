"""Cross-validation: what RL008 flags statically really breaks.

The doctored fixture here is *one source string* staged under a
``src/repro/...`` path and linted (the rule must flag it), and the
same source is then executed against the real execution-context
variable (the token it never resets must leave the leaked context
installed after an exception).  This pins the static rule to the
runtime failure it was built to prevent — a rule that stopped firing,
or a defect that stopped mattering, fails here first.
"""

from __future__ import annotations

import contextvars
from pathlib import Path

import pytest

from repro.analysis.reprolint import lint_paths, load_config
from repro.runtime import context as context_module
from repro.runtime.context import current_context

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG = REPO_ROOT / "reprolint.toml"


def stage_and_lint(tmp_path: Path, rel: str, source: str):
    staged = tmp_path / "src" / "repro" / Path(rel)
    staged.parent.mkdir(parents=True, exist_ok=True)
    staged.write_text(source)
    report = lint_paths([staged], load_config(CONFIG), enforce_stale=False)
    return report.violations


RL008_FIXTURE = """\
def leaky_run(ctx, body):
    token = _CONTEXT.set(ctx)
    result = body()
    _CONTEXT.reset(token)
    return result
"""


def _boom():
    raise RuntimeError("boom")


class TestRL008CrossValidation:
    def test_linter_flags_the_leaky_claim(self, tmp_path):
        hits = stage_and_lint(tmp_path, "runtime/leaky.py", RL008_FIXTURE)
        assert hits
        assert {v.rule for v in hits} == {"RL008"}
        assert all(v.qualname == "leaky_run" for v in hits)
        assert any("exceptional" in v.message for v in hits)

    def test_runtime_consequence_is_a_leaked_context(self):
        namespace = {"_CONTEXT": context_module._CONTEXT}
        exec(RL008_FIXTURE, namespace)
        leaky_run = namespace["leaky_run"]
        leaked = current_context().child(seed=99)

        def after(run):
            # A copied context keeps the leak out of the other tests.
            def scenario():
                with pytest.raises(RuntimeError, match="boom"):
                    run()
                return current_context()

            return contextvars.copy_context().run(scenario)

        # The leak RL008 prevents: the body raised past the reset, so
        # every later read on this thread sees the dead run's context.
        assert after(lambda: leaky_run(leaked, _boom)) is leaked

        def activated():
            with leaked.activate():
                _boom()

        # The sanctioned shape resets in ``finally`` and restores.
        assert after(activated) is not leaked
        assert current_context() is not leaked
