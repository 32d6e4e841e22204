"""The flow rule RL008: units, seeded regressions, fresh
analysis on every run, and config diagnostics.

Mirrors ``test_reprolint.py`` for the dataflow-powered rule: it flags
doctored lifecycles — including one planted in a copy of the *real*
``runtime/session.py`` under the checked-in config — and stays quiet on
the sanctioned shapes the real code uses.
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
WORKSPACE = REPO_ROOT / "src" / "repro" / "engine" / "workspace.py"
CONFIG = REPO_ROOT / "reprolint.toml"

ENGINE = "src/repro/engine/x.py"
RUNTIME = "src/repro/runtime/x.py"


def check(rule: str, source: str, path_key: str = ENGINE):
    return list(RULE_CHECKERS[rule](ast.parse(source), path_key))


class TestRL008Lifecycle:
    def test_claimed_pool_on_early_return_flagged(self):
        violations = check(
            "RL008",
            "class Session:\n"
            "    def run(self):\n"
            "        ws = self._claim_pool()\n"
            "        if bad(ws):\n"
            "            return None\n"
            "        result = compute(ws)\n"
            "        self._release_pool(ws)\n"
            "        return result\n",
            RUNTIME,
        )
        # Claimed on the early return AND on every exceptional path
        # out of compute(); one finding per leaking exit kind at least.
        assert violations
        assert all(v.rule == "RL008" for v in violations)

    def test_release_in_finally_is_clean(self):
        assert not check(
            "RL008",
            "class Session:\n"
            "    def run(self):\n"
            "        ws = self._claim_pool()\n"
            "        try:\n"
            "            return compute(ws)\n"
            "        finally:\n"
            "            self._release_pool(ws)\n",
            RUNTIME,
        )

    def test_conditional_claim_conditional_release_is_clean(self):
        # Session.run's real shape: the claim only happens on one
        # branch, and the finally releases exactly then — the MAYBE
        # state at the join must not be flagged.
        assert not check(
            "RL008",
            "class Session:\n"
            "    def run(self, wait_for):\n"
            "        ws = None\n"
            "        if wait_for is None:\n"
            "            ws = self._claim_pool()\n"
            "        try:\n"
            "            return compute(ws)\n"
            "        finally:\n"
            "            if ws is not None:\n"
            "                self._release_pool(ws)\n",
            RUNTIME,
        )

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

    def test_discarded_acquire_flagged(self):
        violations = check(
            "RL008",
            "def run(ctx, n):\n"
            "    ctx.acquire_workspace(n)\n"
            "    return compute(n)\n",
            RUNTIME,
        )
        assert len(violations) == 1
        assert "discard" in violations[0].message

    def test_double_acquire_flagged(self):
        violations = check(
            "RL008",
            "def run(ctx, n):\n"
            "    a = ctx.acquire_workspace(n)\n"
            "    b = ctx.acquire_workspace(n)\n"
            "    return compute(a, b)\n",
            RUNTIME,
        )
        assert len(violations) == 1

    def test_single_bound_acquire_is_clean(self):
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

    def test_seeded_leaky_pool_claim_flagged(self, tmp_path):
        evil = (
            "\n\ndef leaky_run(session, frontier):\n"
            "    ws = session._claim_pool()\n"
            "    if frontier is None:\n"
            "        return None\n"
            "    out = ws.take(frontier, frontier, \"leak\")\n"
            "    session._release_pool(ws)\n"
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
            "RL001", "RL002", "RL003", "RL004", "RL008",
        ]
        assert "RL008" in rules_for_path("src/repro/runtime/session.py")
        assert "RL008" in rules_for_path("src/repro/runtime/context.py")

    def test_full_tree_is_clean_under_the_flow_rules_too(self):
        report = run_lint()
        assert report.ok, "\n".join(report.format_lines())
