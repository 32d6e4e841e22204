"""The runtime PRAM race sanitizer (docs/robustness.md).

Three obligations:

* **Clean code is clean** — replaying every golden parity fixture (the
  full decomposition + BFS matrix) under an armed sanitizer reports
  zero races, on both execution backends.
* **Injected faults are caught** — a ``cas_flip`` surfaces as a
  cas-order race and a ``label_corrupt`` as an unsanctioned write; the
  cross-validation the fault framework provides.  So does a bare store
  planted in a pull round or in the end-of-level ``filterEdges`` pass.
* The primitive checks (duplicate claims, atomic/plain mixing, halt
  semantics) work in isolation.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro.decomp.base as decomp_base
from repro.cli import main
from repro.connectivity.hybrid_bfs_cc import bfs_from_source
from repro.decomp import DECOMP_VARIANTS, decomp_arb_hybrid
from repro.engine import ComponentLabelState
from repro.engine.backend import use_backend
from repro.engine.kernels import dense_round, filter_edges
from repro.errors import SanitizerError
from repro.experiments.harness import profile_run
from repro.graphs import (
    disjoint_union_edges,
    empty_graph,
    grid3d,
    line_graph,
    star_graph,
)
from repro.pram.sanitizer import PramSanitizer, sanitizing
from repro.resilience import parse_fault_plan
from repro.runtime.context import current_context

from tests.conftest import _zoo
from tests.golden.generate_decomp_parity import capture_bfs, capture_one

BACKENDS = ["reference", "fast"]

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "decomp_parity.json")

with open(FIXTURE) as _f:
    _GOLD = json.load(_f)

_DECOMP_KEYS = sorted(k for k in _GOLD if not k.startswith("bfs/"))
_BFS_KEYS = sorted(k for k in _GOLD if k.startswith("bfs/"))


@pytest.fixture(scope="module")
def zoo():
    return _zoo()


class TestGoldenFixturesRaceFree:
    """Every pinned run is race-free under the sanitizer, both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("key", _DECOMP_KEYS)
    def test_decomp_fixture_clean(self, key, backend, zoo):
        gname, variant, beta_s, seed_s = key.split("/")
        beta = float(beta_s.split("=")[1])
        seed = int(seed_s.split("=")[1])
        with use_backend(backend), sanitizing() as sanitizer:
            capture_one(DECOMP_VARIANTS[variant], zoo[gname], beta, seed)
        assert sanitizer.races == []
        assert sanitizer.rounds_checked > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("key", _BFS_KEYS)
    def test_bfs_fixture_clean(self, key, backend, zoo):
        gname = key.split("/")[1]
        with use_backend(backend), sanitizing() as sanitizer:
            capture_bfs(zoo[gname])
        assert sanitizer.races == []


class TestFaultCrossValidation:
    """The sanitizer catches what the fault framework injects."""

    @pytest.mark.parametrize(
        "algorithm, make_graph, kwargs",
        [
            ("decomp-arb-CC", lambda: line_graph(200), {"seed": 1}),
            # The BFS family's push rounds race through first_winner
            # too, so the flip reaches them; they take no seed.
            ("hybrid-BFS-CC", lambda: grid3d(5), {}),
            ("multistep-CC", lambda: grid3d(5), {}),
        ],
        ids=["decomp-arb", "hybrid-BFS", "multistep"],
    )
    def test_cas_flip_detected_as_cas_order_race(self, algorithm, make_graph, kwargs):
        plan = parse_fault_plan("cas_flip:p=1.0,max_fires=1000000", seed=0)
        with sanitizing(halt_on_race=False) as sanitizer:
            profile_run(
                algorithm, make_graph(), verify=False, fault_plan=plan, **kwargs
            )
        assert plan.fired
        assert sanitizer.races
        assert {r.kind for r in sanitizer.races} == {"cas-order"}

    def test_label_corrupt_detected_as_unsanctioned_write(self):
        graph = disjoint_union_edges([line_graph(20), line_graph(20)])
        plan = parse_fault_plan("label_corrupt:vertex=3,label_from=30", seed=0)
        with sanitizing(halt_on_race=False) as sanitizer:
            profile_run(
                "decomp-arb-CC", graph, verify=False, fault_plan=plan, seed=1
            )
        assert plan.fired
        kinds = {r.kind for r in sanitizer.races}
        assert "unsanctioned-write" in kinds
        corrupted = [r for r in sanitizer.races if r.kind == "unsanctioned-write"]
        assert any(3 in r.indices for r in corrupted)

    def test_halt_mode_raises_on_injected_race(self):
        plan = parse_fault_plan("cas_flip:p=1.0,max_fires=1000000", seed=0)
        with pytest.raises(SanitizerError) as excinfo:
            with sanitizing():  # halt_on_race=True is the default
                profile_run(
                    "decomp-arb-CC",
                    line_graph(200),
                    verify=False,
                    fault_plan=plan,
                    seed=1,
                )
        assert "cas-order" in str(excinfo.value)
        assert excinfo.value.report is not None


def _plant_store(real, array_of):
    """Wrap pull round *real* to also write one non-winner's cell."""

    def planted(state, *args):
        winners = real(state, *args)
        arr = array_of(state)
        won = set(winners.tolist())
        v = next(u for u in range(arr.size) if u not in won)
        arr[v] += 1
        return winners

    return planted


class TestPullRoundStores:
    """A pull round declares its single-writer stores, and only those.

    No CAS runs in a pull round, so nothing sanctions its stores but
    the caller's own declaration; a store to any other vertex is an
    unsanctioned write.
    """

    def test_dense_round(self, monkeypatch):
        monkeypatch.setattr(
            decomp_base, "dense_round", _plant_store(dense_round, lambda s: s.C)
        )
        graph = disjoint_union_edges([star_graph(5), empty_graph(4)])
        with pytest.raises(SanitizerError) as excinfo:
            with sanitizing():
                decomp_arb_hybrid(graph, 0.2, seed=5, dense_threshold=0.0)
        report = excinfo.value.report
        assert (report.kind, report.array, report.round_index) == (
            "unsanctioned-write",
            "C",
            1,
        )

    def test_component_label_pull(self, monkeypatch):
        real = ComponentLabelState.pull_round
        monkeypatch.setattr(
            ComponentLabelState,
            "pull_round",
            _plant_store(real, lambda s: s.labels),
        )
        labels = np.full(6, -1, dtype=np.int64)
        with pytest.raises(SanitizerError) as excinfo:
            with sanitizing():
                bfs_from_source(line_graph(6), 0, labels, 0, dense_threshold=0.0)
        report = excinfo.value.report
        assert (report.kind, report.array) == ("unsanctioned-write", "labels")

    def test_cli_sanitize_reports_planted_store(self, monkeypatch, capsys):
        # decomp-min-hybrid-CC pulls in rounds 3-5 on tiny rMat.
        monkeypatch.setattr(
            decomp_base, "dense_round", _plant_store(dense_round, lambda s: s.C)
        )
        code = main(
            ["--sanitize", "--scale", "tiny", "run", "decomp-min-hybrid-CC", "rMat"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unsanctioned-write on 'C' (round 3)" in err

    def test_cli_sanitize_passes_declared_stores(self, capsys):
        code = main(
            ["--sanitize", "--scale", "tiny", "run", "decomp-min-hybrid-CC", "rMat"]
        )
        assert code == 0
        assert "sanitizer: 0 race(s)" in capsys.readouterr().err


class TestEndOfLevelPass:
    """The hybrids' ``filterEdges`` pass runs inside a round window.

    It declares no write, so a bare store it makes to ``C`` is an
    unsanctioned write, caught in the window after the last round.
    """

    def test_planted_store_in_filter_edges_is_caught(self, monkeypatch):
        changed = []

        def planted(state, deferred):
            vertices = np.concatenate(deferred)
            before = state.C[vertices[0]]
            state.C[vertices[:1]] = state.C[vertices[-1:]]
            changed.append(bool(state.C[vertices[0]] != before))
            return filter_edges(state, deferred)

        monkeypatch.setattr(decomp_base, "filter_edges", planted)
        with pytest.raises(SanitizerError) as excinfo:
            with sanitizing():
                decomp_arb_hybrid(line_graph(64), 0.2, seed=1, dense_threshold=0.0)
        # The shadow check compares values: the store must move a label.
        assert changed == [True]
        report = excinfo.value.report
        assert (report.kind, report.array, report.round_index) == (
            "unsanctioned-write",
            "C",
            19,
        )


class TestPrimitiveChecks:
    """Unit-level behavior of the sanitizer's check machinery."""

    def test_duplicate_declared_write_is_a_conflict(self):
        sanitizer = PramSanitizer(halt_on_race=False)
        labels = np.zeros(8, dtype=np.int64)
        sanitizer.open_run({"labels": labels})
        sanitizer.open_round(0)
        # Two concurrent claims on index 3 inside one declared batch:
        # NumPy keeps the last writer, the PRAM machine the first —
        # a real lost-update hazard.
        sanitizer.record_write(labels, np.array([1, 3, 3, 5]))
        labels[[1, 3, 5]] = 7
        sanitizer.close_round()
        sanitizer.close_run()
        assert [r.kind for r in sanitizer.races] == ["write-conflict"]
        assert 3 in sanitizer.races[0].indices

    def test_atomic_and_plain_write_mix_flagged(self):
        sanitizer = PramSanitizer(halt_on_race=False)
        labels = np.zeros(8, dtype=np.int64)
        sanitizer.open_run({"labels": labels})
        sanitizer.open_round(0)
        sanitizer.record_atomic(labels, np.array([2, 4]))
        sanitizer.record_write(labels, np.array([4, 6]))
        labels[[2, 4, 6]] = 1
        sanitizer.close_round()
        sanitizer.close_run()
        kinds = [r.kind for r in sanitizer.races]
        assert "atomic-mix" in kinds
        mix = next(r for r in sanitizer.races if r.kind == "atomic-mix")
        assert 4 in mix.indices

    def test_unsanctioned_mutation_of_registered_array(self):
        sanitizer = PramSanitizer(halt_on_race=False)
        labels = np.zeros(8, dtype=np.int64)
        sanitizer.open_run({"labels": labels})
        sanitizer.open_round(0)
        labels[5] = 99  # no record_write / sanction covers index 5
        sanitizer.close_round()
        sanitizer.close_run()
        assert [r.kind for r in sanitizer.races] == ["unsanctioned-write"]
        assert sanitizer.races[0].array == "labels"
        assert 5 in sanitizer.races[0].indices

    def test_sanctioned_winner_set_passes(self):
        sanitizer = PramSanitizer(halt_on_race=False)
        labels = np.zeros(8, dtype=np.int64)
        sanitizer.open_run({"labels": labels})
        sanitizer.open_round(0)
        sanitizer.sanction(np.array([1, 5]))
        labels[[1, 5]] = 3
        sanitizer.close_round()
        sanitizer.close_run()
        assert sanitizer.races == []

    def test_context_manager_installs_and_removes(self):
        assert current_context().sanitizer is None
        with sanitizing() as sanitizer:
            assert current_context().sanitizer is sanitizer
        assert current_context().sanitizer is None

    def test_summary_mentions_counts(self):
        with sanitizing() as sanitizer:
            profile_run(
                "decomp-arb-CC", line_graph(50), verify=False, seed=1
            )
        text = sanitizer.summary()
        assert "0 race(s)" in text
        assert sanitizer.cas_checked > 0
