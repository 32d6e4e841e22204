"""reprolint: rule units, the allowlist policy, and the seeded check.

The acceptance bar for the static half (docs/static_analysis.md):

* each rule flags its seeded violation with file:line and rule id —
  including when the violation is planted in a *copy of the real
  kernels* staged under a temporary ``src/repro/...`` tree, so the
  linter demonstrably guards the real code paths;
* the checked-in repository lints clean under ``reprolint.toml``, and
  every allowlist entry actually fires (no stale suppressions);
* config validation rejects unjustified or malformed entries.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.reprolint import (
    KNOWN_RULES,
    RULE_DOCS,
    LintConfig,
    lint_paths,
    load_config,
    path_key_for,
    rules_for_path,
    run_lint,
)
from repro.analysis.reprolint.rules import RULE_CHECKERS, Violation
from repro.errors import LintConfigError, ParameterError

REPO_ROOT = Path(__file__).resolve().parent.parent
KERNELS = REPO_ROOT / "src" / "repro" / "engine" / "kernels.py"
CONFIG = REPO_ROOT / "reprolint.toml"


def check(rule: str, source: str, path_key: str = "src/repro/engine/x.py"):
    return list(RULE_CHECKERS[rule](ast.parse(source), path_key))


class TestRL001SharedWrites:
    def test_bare_shared_write_flagged(self):
        violations = check(
            "RL001",
            "def kernel(labels, idx):\n"
            "    labels[idx] = 7\n",
        )
        assert len(violations) == 1
        assert violations[0].rule == "RL001"
        assert violations[0].line == 2
        assert violations[0].qualname == "kernel"

    def test_self_attribute_write_flagged(self):
        violations = check(
            "RL001",
            "class S:\n"
            "    def claim(self, idx):\n"
            "        self.C[idx] = 1\n",
        )
        assert [v.qualname for v in violations] == ["S.claim"]

    def test_local_array_write_ok(self):
        assert not check(
            "RL001",
            "import numpy as np\n"
            "def kernel(idx):\n"
            "    tmp = np.zeros(10)\n"
            "    tmp[idx] = 1\n"
            "    return tmp\n",
        )

    def test_alias_of_shared_still_flagged(self):
        violations = check(
            "RL001",
            "def kernel(labels, idx):\n"
            "    C = labels\n"
            "    C[idx] = 0\n",
        )
        assert len(violations) == 1

    def test_private_host_bookkeeping_skipped(self):
        # self._memo[...] = ... is host-side bookkeeping, not
        # simulated shared memory.
        assert not check(
            "RL001",
            "class W:\n"
            "    def _remember(self, key, arr):\n"
            "        self._memo[key] = arr\n",
        )


class TestRL003ChargeOnReturnPaths:
    def test_uncharged_post_expand_return_flagged(self):
        violations = check(
            "RL003",
            "def kernel(state, tracker):\n"
            "    src, dst = state.graph.expand(state.frontier)\n"
            "    if dst.size == 0:\n"
            "        return None\n"
            "    tracker.add('gather', work=1.0, depth=1.0)\n"
            "    return dst\n",
        )
        assert len(violations) == 1
        assert violations[0].line == 4

    def test_uncharged_return_after_expand_targets_flagged(self):
        violations = check(
            "RL003",
            "def kernel(state, tracker):\n"
            "    counts, dst = state.graph.expand_targets(state.frontier)\n"
            "    if dst.size == 0:\n"
            "        return None\n"
            "    tracker.add('gather', work=1.0, depth=1.0)\n"
            "    return dst\n",
        )
        assert [v.line for v in violations] == [4]

    def test_pre_expand_guard_ok(self):
        assert not check(
            "RL003",
            "def kernel(state, tracker):\n"
            "    if state.frontier.size == 0:\n"
            "        return None\n"
            "    src, dst = state.graph.expand(state.frontier)\n"
            "    tracker.add('gather', work=1.0, depth=1.0)\n"
            "    return dst\n",
        )

    def test_end_round_counts_as_charge(self):
        assert not check(
            "RL003",
            "def kernel(state):\n"
            "    src, dst = state.graph.expand(state.frontier)\n"
            "    end_round(int(src.size))\n"
            "    return dst\n",
        )


class TestRL004GlobalState:
    def test_np_random_global_flagged(self):
        violations = check(
            "RL004",
            "import numpy as np\n"
            "def shuffle(x):\n"
            "    np.random.seed(0)\n"
            "    return np.random.permutation(x)\n",
            "src/repro/decomp/x.py",
        )
        assert {v.line for v in violations} == {3, 4}

    def test_wall_clock_flagged(self):
        violations = check(
            "RL004",
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n",
            "src/repro/decomp/x.py",
        )
        assert len(violations) == 1

    def test_explicit_generator_ok(self):
        assert not check(
            "RL004",
            "import numpy as np\n"
            "def shuffle(x, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.permutation(x)\n",
            "src/repro/decomp/x.py",
        )

    def test_exempt_layers_out_of_scope(self):
        assert "RL004" not in rules_for_path("src/repro/experiments/harness.py")
        assert "RL004" in rules_for_path("src/repro/decomp/base.py")
        # The tracer timestamps with real time by design: RL004 is out,
        # RL010 (observational purity) polices the layer instead.
        assert "RL004" not in rules_for_path("src/repro/obs/tracer.py")
        assert "RL010" in rules_for_path("src/repro/obs/tracer.py")
        assert "RL010" not in rules_for_path("src/repro/engine/core.py")


class TestRL010ObservationalPurity:
    OBS = "src/repro/obs/tracer.py"

    def test_store_into_parameter_flagged(self):
        violations = check(
            "RL010",
            "def snoop(labels, i):\n"
            "    labels[i] = 0\n",
            self.OBS,
        )
        assert len(violations) == 1
        assert "caller-owned 'labels'" in violations[0].message

    def test_augmented_store_flagged(self):
        violations = check(
            "RL010",
            "def snoop(counts, i):\n"
            "    counts[i] += 1\n",
            self.OBS,
        )
        assert len(violations) == 1

    def test_attribute_store_on_parameter_flagged(self):
        violations = check(
            "RL010",
            "def snoop(state):\n"
            "    state.round = 99\n",
            self.OBS,
        )
        assert len(violations) == 1

    def test_inplace_numpy_mutation_flagged(self):
        violations = check(
            "RL010",
            "import numpy as np\n"
            "def snoop(frontier, scratch):\n"
            "    np.copyto(scratch, frontier)\n"
            "    frontier.fill(0)\n",
            self.OBS,
        )
        assert {v.message.split()[0] for v in violations} == {"in-place"}
        assert len(violations) == 2

    def test_tracker_charge_flagged(self):
        violations = check(
            "RL010",
            "def snoop(ctx):\n"
            "    ctx.tracker.add('scan', work=1.0)\n",
            self.OBS,
        )
        assert len(violations) == 1
        assert "cost tracker" in violations[0].message

    def test_own_state_mutation_ok(self):
        assert not check(
            "RL010",
            "class Tracer:\n"
            "    def record(self, name):\n"
            "        self.events.append(name)\n"
            "        self._tids[name] = len(self._tids)\n",
            self.OBS,
        )

    def test_real_obs_package_is_clean(self):
        obs_dir = REPO_ROOT / "src" / "repro" / "obs"
        report = lint_paths([obs_dir], LintConfig(), enforce_stale=False)
        assert [v for v in report.violations if v.rule == "RL010"] == []
        assert report.files_checked >= 4


class TestSeededRegression:
    """Doctored copies of the *real* kernels must be flagged in place."""

    def _stage(self, tmp_path: Path, mutate) -> Path:
        staged = tmp_path / "src" / "repro" / "engine" / "kernels.py"
        staged.parent.mkdir(parents=True)
        staged.write_text(mutate(KERNELS.read_text(encoding="utf-8")))
        return staged

    def test_seeded_bare_shared_write_flagged(self, tmp_path):
        # Planted in filter_edges, which the registry does not
        # allowlist — an unsanctioned shared write there must surface
        # even under the real checked-in config.
        evil = "    state.C[dst] = state.C[src]\n"
        anchor = "    end_round(edges, tracker=tracker)\n\n\ndef bottom_up_step"
        staged = self._stage(
            tmp_path,
            lambda src: src.replace(
                anchor,
                evil + anchor,
                1,
            ),
        )
        line = staged.read_text().splitlines().index(evil.rstrip("\n")) + 1
        config = load_config(CONFIG)
        report = lint_paths([staged], config, enforce_stale=False)
        hits = [v for v in report.violations if v.rule == "RL001"]
        assert len(hits) == 1
        assert hits[0].line == line
        assert f"kernels.py:{line}:" in hits[0].format()
        assert "RL001" in hits[0].format()

    def test_unmodified_copy_is_clean(self, tmp_path):
        staged = self._stage(tmp_path, lambda src: src)
        report = lint_paths([staged], load_config(CONFIG), enforce_stale=False)
        assert report.violations == []
        assert report.suppressed > 0


class TestRepositoryIsClean:
    def test_full_tree_lints_clean(self):
        report = run_lint()
        assert report.ok, "\n".join(report.format_lines())

    def test_every_allowlist_entry_fires(self):
        report = run_lint()  # full tree => stale entries are errors
        assert report.stale_entries == []
        assert report.suppressed > 0

    def test_every_entry_justified(self):
        config = load_config(CONFIG)
        for entry in config.allow:
            assert entry.reason.strip(), f"{entry.site} lacks a reason"


class TestConfigValidation:
    def _load(self, tmp_path: Path, text: str):
        p = tmp_path / "reprolint.toml"
        p.write_text(text)
        return load_config(p)

    def test_missing_reason_rejected(self, tmp_path):
        with pytest.raises(LintConfigError, match="reason"):
            self._load(
                tmp_path,
                '[[allow]]\nrule = "RL001"\nsite = "a.py::f"\n',
            )

    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(LintConfigError, match="RL999"):
            self._load(
                tmp_path,
                '[[allow]]\nrule = "RL999"\nsite = "a.py::f"\nreason = "x"\n',
            )

    def test_malformed_site_rejected(self, tmp_path):
        with pytest.raises(LintConfigError, match="site"):
            self._load(
                tmp_path,
                '[[allow]]\nrule = "RL001"\nsite = "no-qualname"\nreason = "x"\n',
            )

    def test_invalid_toml_rejected(self, tmp_path):
        with pytest.raises(LintConfigError, match="invalid TOML"):
            self._load(tmp_path, "[[allow\n")

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(LintConfigError, match="unknown top-level"):
            self._load(tmp_path, 'ignore = ["everything"]\n')

    def test_stale_entry_reported(self, tmp_path):
        config = self._load(
            tmp_path,
            '[[allow]]\n'
            'rule = "RL001"\n'
            'site = "src/repro/engine/nonexistent.py::ghost"\n'
            'reason = "covers nothing"\n',
        )
        report = lint_paths([KERNELS], config, enforce_stale=True)
        assert len(report.stale_entries) == 1
        assert not report.ok
        assert any("stale" in line for line in report.format_lines())

    def test_known_rules_all_have_checkers(self):
        want = ["RL001", "RL003", "RL004", "RL010"]
        assert list(KNOWN_RULES) == want
        assert list(RULE_CHECKERS) == want
        assert list(RULE_DOCS) == want


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

    def test_retired_rule_rejected(self, tmp_path):
        _, load = self._load(
            tmp_path,
            '[[allow]]\nrule = "RL008"\nsite = "a.py::f"\nreason = "x"\n',
        )
        with pytest.raises(LintConfigError, match="RL008"):
            load()


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


class TestScoping:
    def test_path_key_normalises_absolute_paths(self):
        assert path_key_for(KERNELS) == "src/repro/engine/kernels.py"

    def test_rule_scopes(self):
        assert rules_for_path("src/repro/engine/workspace.py") == [
            "RL001", "RL003", "RL004",
        ]
        assert rules_for_path("src/repro/runtime/context.py") == ["RL004"]
        assert rules_for_path("src/repro/runtime/session.py") == []
        assert rules_for_path("src/repro/obs/tracer.py") == ["RL010"]

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="does not exist"):
            run_lint([str(tmp_path / "nope")])

    def test_non_python_file_rejected(self, tmp_path):
        notes = tmp_path / "notes.md"
        notes.write_text("# notes\n")
        with pytest.raises(ParameterError, match=r"\.py"):
            run_lint([str(notes)])

    def test_rl001_covers_the_three_subsystems(self):
        for key in (
            "src/repro/engine/state.py",
            "src/repro/decomp/base.py",
            "src/repro/connectivity/union_find.py",
        ):
            assert "RL001" in rules_for_path(key)
        assert "RL001" not in rules_for_path("src/repro/graphs/csr.py")

    def test_empty_config_flags_kernel_registry(self):
        # Without the allowlist the registry sites are violations again
        # (the linter is not silently scoped around them).
        report = lint_paths([KERNELS], LintConfig(), enforce_stale=False)
        assert any(v.rule == "RL001" for v in report.violations)
