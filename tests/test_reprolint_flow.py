"""The flow rule RL008: units, seeded regressions, fresh
analysis on every run, and config diagnostics.

Mirrors ``test_reprolint.py`` for the dataflow-powered rule: it flags
doctored contextvar-token lifecycles — including one planted in a copy
of the *real* ``runtime/session.py`` under the checked-in config — and
stays quiet on the sanctioned shapes the real code uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.reprolint import (
    lint_paths,
    load_config,
    rules_for_path,
    run_lint,
)
from repro.analysis.reprolint.rules import RULE_CHECKERS, Violation
from repro.errors import LintConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent
SESSION = REPO_ROOT / "src" / "repro" / "runtime" / "session.py"
CONFIG = REPO_ROOT / "reprolint.toml"

ENGINE = "src/repro/engine/x.py"
RUNTIME = "src/repro/runtime/x.py"


def check(rule: str, source: str, path_key: str = ENGINE):
    return list(RULE_CHECKERS[rule](ast.parse(source), path_key))


class TestRL008Lifecycle:
    def test_token_set_on_early_return_flagged(self):
        violations = check(
            "RL008",
            "class Scope:\n"
            "    def run(self):\n"
            "        token = _CONTEXT.set(self)\n"
            "        if bad(token):\n"
            "            return None\n"
            "        result = compute(token)\n"
            "        _CONTEXT.reset(token)\n"
            "        return result\n",
            RUNTIME,
        )
        # Set on the early return AND on every exceptional path out of
        # compute(); one finding per leaking exit kind at least.
        kinds = " ".join(v.message for v in violations)
        assert "a return path" in kinds and "an exceptional path" in kinds
        assert all(v.rule == "RL008" for v in violations)

    def test_release_in_finally_is_clean(self):
        # An early return inside the try still passes the finally.
        assert not check(
            "RL008",
            "class Scope:\n"
            "    def run(self):\n"
            "        token = _CONTEXT.set(self)\n"
            "        try:\n"
            "            if bad(token):\n"
            "                return None\n"
            "            return compute(token)\n"
            "        finally:\n"
            "            _CONTEXT.reset(token)\n",
            RUNTIME,
        )

    def test_conditional_claim_conditional_release_is_clean(self):
        # The set only happens on one branch, and the finally resets
        # exactly then — the MAYBE state at the join must not be
        # flagged.
        assert not check(
            "RL008",
            "class Scope:\n"
            "    def run(self, ctx):\n"
            "        token = None\n"
            "        if ctx is not None:\n"
            "            token = _CONTEXT.set(ctx)\n"
            "        try:\n"
            "            return compute(ctx)\n"
            "        finally:\n"
            "            if token is not None:\n"
            "                _CONTEXT.reset(token)\n",
            RUNTIME,
        )

    def test_token_set_twice_flagged(self):
        violations = check(
            "RL008",
            "def nest(a, b):\n"
            "    token = _CONTEXT.set(a)\n"
            "    try:\n"
            "        token = _CONTEXT.set(b)\n"
            "        return compute()\n"
            "    finally:\n"
            "        _CONTEXT.reset(token)\n",
            RUNTIME,
        )
        assert any("set again" in v.message for v in violations)

    def test_token_without_finally_flagged(self):
        violations = check(
            "RL008",
            "def activate(self):\n"
            "    token = _CONTEXT.set(self)\n"
            "    yield self\n"
            "    _CONTEXT.reset(token)\n",
            RUNTIME,
        )
        assert violations
        assert "exceptional" in " ".join(v.message for v in violations)

    def test_token_set_reset_in_finally_is_clean(self):
        assert not check(
            "RL008",
            "def activate(self):\n"
            "    token = _CONTEXT.set(self)\n"
            "    try:\n"
            "        yield self\n"
            "    finally:\n"
            "        _CONTEXT.reset(token)\n",
            RUNTIME,
        )

    def test_single_bound_acquire_is_clean(self):
        # Workspaces are shared and stateless: nothing to release.
        assert not check(
            "RL008",
            "def run(ctx, n):\n"
            "    ws = ctx.acquire_workspace(n)\n"
            "    return compute(ws)\n",
            RUNTIME,
        )


class TestSeededRegressionSession:
    """Doctored copies of the real session layer must be flagged."""

    def _stage(self, tmp_path: Path, mutate) -> Path:
        staged = tmp_path / "src" / "repro" / "runtime" / "session.py"
        staged.parent.mkdir(parents=True)
        staged.write_text(mutate(SESSION.read_text(encoding="utf-8")))
        return staged

    def _lint(self, staged: Path):
        return lint_paths([staged], load_config(CONFIG), enforce_stale=False)

    def test_unmodified_copy_is_clean(self, tmp_path):
        staged = self._stage(tmp_path, lambda src: src)
        assert self._lint(staged).violations == []

    def test_seeded_leaky_token_flagged(self, tmp_path):
        evil = (
            "\n\ndef leaky_run(session, frontier):\n"
            "    token = _CONTEXT.set(session)\n"
            "    if frontier is None:\n"
            "        return None\n"
            "    out = session.run(frontier)\n"
            "    _CONTEXT.reset(token)\n"
            "    return out\n"
        )
        staged = self._stage(tmp_path, lambda src: src + evil)
        hits = [v for v in self._lint(staged).violations if v.rule == "RL008"]
        assert hits
        assert all(v.qualname == "leaky_run" for v in hits)


class TestFindingsAreNeverReplayed:
    def test_second_run_sees_a_changed_checker(self, monkeypatch):
        # Every run re-analyzes every file, so a rule edited between two
        # runs on an unchanged tree reports its new findings at once.
        assert run_lint().ok
        original = RULE_CHECKERS["RL003"]

        def planted(tree, path):
            found = original(tree, path)
            if path == "src/repro/engine/kernels.py":
                found.append(
                    Violation(
                        rule="RL003",
                        path=path,
                        line=1,
                        col=0,
                        qualname="<planted>",
                        message="planted finding",
                    )
                )
            return found

        monkeypatch.setitem(RULE_CHECKERS, "RL003", planted)
        second = run_lint()
        assert [v.qualname for v in second.violations] == ["<planted>"]


class TestConfigDiagnostics:
    def _load(self, tmp_path: Path, text: str):
        p = tmp_path / "reprolint.toml"
        p.write_text(text)
        return p, lambda: load_config(p)

    def test_errors_carry_the_entry_line_number(self, tmp_path):
        p, load = self._load(
            tmp_path,
            '[[allow]]\n'
            'rule = "RL001"\n'
            'site = "a.py::f"\n'
            'reason = "fine"\n'
            '\n'
            '[[allow]]\n'
            'rule = "RL999"\n'
            'site = "b.py::g"\n'
            'reason = "broken"\n',
        )
        with pytest.raises(LintConfigError) as err:
            load()
        assert f"{p}:6: allow[1]" in str(err.value)

    def test_unknown_entry_keys_rejected(self, tmp_path):
        _, load = self._load(
            tmp_path,
            '[[allow]]\n'
            'rule = "RL001"\n'
            'site = "a.py::f"\n'
            'reason = "x"\n'
            'sevirity = "low"\n',
        )
        with pytest.raises(LintConfigError, match="unknown keys"):
            load()

    def test_scopes_cover_the_new_rules(self):
        assert rules_for_path("src/repro/engine/workspace.py") == [
            "RL001", "RL003", "RL004", "RL008",
        ]
        assert "RL008" in rules_for_path("src/repro/runtime/session.py")
        assert "RL008" in rules_for_path("src/repro/runtime/context.py")

    def test_full_tree_is_clean_under_the_flow_rules_too(self):
        report = run_lint()
        assert report.ok, "\n".join(report.format_lines())
