"""Fault-injection matrix: every corruption class is benign or recovered.

The acceptance bar for the fault layer: each of the four fault kinds,
injected mid-run, must either

* be **provably benign** — the corrupted execution is still a legal
  CRCW schedule, so the result verifies (``cas_flip``, and
  ``shift_perturb``, which only re-times center starts); or
* be **detected** by ``verify_labeling`` and **recovered** by the
  :class:`~repro.resilience.runner.ResilientRunner` within its retry
  budget (``drop_frontier``, ``label_corrupt``).
"""

import numpy as np
import pytest

from repro.analysis.verify import verify_labeling
from repro.errors import FaultSpecError, VerificationError
from repro.experiments.harness import profile_run
from repro.graphs import disjoint_union_edges, line_graph
from repro.pram.sanitizer import sanitizing
from repro.resilience import FAULT_KINDS, FaultPlan, ResilientRunner, parse_fault_plan

pytestmark = pytest.mark.faults


def _path():
    # Unpermuted: vertex i and i+1 are adjacent, so targeted vertex
    # faults hit known edges.
    return line_graph(200)


def _two_components():
    # Vertices [0, 20) and [20, 40): merging across 20 is detectable.
    return disjoint_union_edges([line_graph(20), line_graph(20)])


#: kind -> (spec string, graph factory, expected classification)
FAULT_MATRIX = {
    "cas_flip": ("cas_flip:p=1.0,max_fires=1000000", _path, "benign"),
    "shift_perturb": ("shift_perturb:holdback=0.9", _path, "benign"),
    "drop_frontier": ("drop_frontier:vertices=10|11", _path, "detected"),
    "label_corrupt": (
        "label_corrupt:vertex=3,label_from=30", _two_components, "detected"
    ),
}


def test_matrix_covers_every_fault_kind():
    assert set(FAULT_MATRIX) == set(FAULT_KINDS)


class TestFaultMatrix:
    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_fault_fires(self, kind):
        spec, make_graph, _ = FAULT_MATRIX[kind]
        plan = parse_fault_plan(spec, seed=0)
        profile_run(
            "decomp-arb-CC", make_graph(), verify=False, fault_plan=plan, seed=1
        )
        assert plan.fired, f"{kind} never fired — the hook is not wired"
        assert all(rec["kind"] == kind for rec in plan.fired)

    @pytest.mark.parametrize(
        "kind",
        [k for k, (_, _, c) in FAULT_MATRIX.items() if c == "benign"],
    )
    def test_benign_faults_still_verify(self, kind):
        # A legal-schedule perturbation must not break correctness:
        # the run completes and the labeling passes full verification.
        spec, make_graph, _ = FAULT_MATRIX[kind]
        graph = make_graph()
        plan = parse_fault_plan(spec, seed=0)
        prof = profile_run(
            "decomp-arb-CC", graph, verify=False, fault_plan=plan, seed=1
        )
        assert plan.fired
        verify_labeling(graph, prof.result.labels)

    @pytest.mark.parametrize(
        "kind",
        [k for k, (_, _, c) in FAULT_MATRIX.items() if c == "detected"],
    )
    def test_corrupting_faults_are_detected(self, kind):
        spec, make_graph, _ = FAULT_MATRIX[kind]
        graph = make_graph()
        plan = parse_fault_plan(spec, seed=0)
        prof = profile_run(
            "decomp-arb-CC", graph, verify=False, fault_plan=plan, seed=1
        )
        assert plan.fired
        with pytest.raises(VerificationError):
            verify_labeling(graph, prof.result.labels)

    @pytest.mark.parametrize(
        "kind",
        [k for k, (_, _, c) in FAULT_MATRIX.items() if c == "detected"],
    )
    def test_corrupting_faults_are_recovered_by_runner(self, kind):
        spec, make_graph, _ = FAULT_MATRIX[kind]
        graph = make_graph()
        runner = ResilientRunner(
            fault_plan=parse_fault_plan(spec, seed=0, sabotage_runs=1)
        )
        outcome = runner.run_cell("decomp-arb-CC", graph, graph_name="g", seed=1)
        assert outcome.attempts <= runner.retry.max_attempts
        assert not outcome.degraded
        verify_labeling(graph, outcome.profile.result.labels)

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_every_kind_terminates_under_full_sabotage(self, kind):
        # Even an always-on fault may not hang the algorithm — budgets
        # and the perturb-round limit guarantee the run finishes (and
        # is then either accepted or rejected by verification).
        spec, make_graph, _ = FAULT_MATRIX[kind]
        plan = parse_fault_plan(spec, seed=0, sabotage_runs=10**9)
        prof = profile_run(
            "decomp-arb-CC", make_graph(), verify=False, fault_plan=plan, seed=1
        )
        assert prof.result.labels.shape[0] == make_graph().num_vertices


class TestDeterminism:
    def test_same_seed_same_firings(self):
        records = []
        for _ in range(2):
            plan = parse_fault_plan("cas_flip:p=0.5,max_fires=1000000", seed=42)
            profile_run(
                "decomp-arb-CC", _path(), verify=False, fault_plan=plan, seed=1
            )
            records.append(plan.fired)
        assert records[0] == records[1]

    def test_different_seed_different_schedule(self):
        # 300 contested CAS sites, each flipped with p=0.5: two seeds
        # choosing the identical flip mask has probability 2^-300.
        idx = np.repeat(np.arange(300, dtype=np.int64), 2)
        chosen = []
        for plan_seed in (1, 2):
            plan = parse_fault_plan(
                "cas_flip:p=0.5,max_fires=1000000", seed=plan_seed
            )
            dests, positions = np.unique(idx, return_index=True)
            with plan.activate():
                out_positions, out_dests = plan.perturb_cas(
                    idx, positions.astype(np.int64), dests
                )
            # Whatever was flipped, the schedule must stay legal: each
            # chosen position still writes its own destination.
            assert np.array_equal(idx[out_positions], out_dests)
            chosen.append(out_positions)
        assert not np.array_equal(chosen[0], chosen[1])

    def test_run_rotation_is_reproducible(self):
        # The per-run substream depends only on (seed, run_index).
        def firings():
            plan = parse_fault_plan(
                "cas_flip:p=0.5,max_fires=1000000", seed=7, sabotage_runs=3
            )
            out = []
            for _ in range(3):
                profile_run(
                    "decomp-arb-CC", _path(), verify=False, fault_plan=plan, seed=1
                )
                out.append(list(plan.fired))
            return out

        assert firings() == firings()


class TestCasFlipRounds:
    """A ``cas_flip`` spec's ``round=`` restricts it to that round."""

    @pytest.mark.parametrize("round_index", [6, 12])
    def test_first_flip_is_in_the_named_round(self, round_index):
        # Decomp-Arb on the unpermuted path has contested races in
        # rounds 6 and 12 (and none before round 6).
        plan = parse_fault_plan(f"cas_flip:p=1.0,round={round_index}", seed=0)
        with sanitizing(halt_on_race=False) as sanitizer:
            profile_run(
                "decomp-arb-CC", _path(), verify=False, fault_plan=plan, seed=1
            )
        assert plan.fired
        assert {f["round"] for f in plan.fired} == {round_index}
        assert sanitizer.races[0].kind == "cas-order"
        assert sanitizer.races[0].round_index == round_index

    def test_round_restricted_spec_leaves_contraction_alone(self):
        # Decomp-Min on a path never has a contested race in a round;
        # its contested races are in contraction's hash-table dedup.
        plan = parse_fault_plan("cas_flip:p=1.0,round=2", seed=0)
        with sanitizing(halt_on_race=False) as sanitizer:
            profile_run(
                "decomp-min-CC", _path(), verify=False, fault_plan=plan, seed=1
            )
        assert plan.fired == []
        assert sanitizer.races == []

    def test_unrestricted_spec_still_flips_outside_rounds(self):
        plan = parse_fault_plan("cas_flip:p=1.0,max_fires=1000000", seed=0)
        profile_run("decomp-min-CC", _path(), verify=False, fault_plan=plan, seed=1)
        assert plan.fired
        assert {f["round"] for f in plan.fired} == {None}
        assert plan.round_index is None


class TestLabelCorruptLegality:
    def test_corrupt_labels_stay_legal_vertex_ids(self):
        # Contraction indexes arrays of length n with the labels, so a
        # corrupted label must still be a real vertex id.
        graph = _two_components()
        plan = parse_fault_plan("label_corrupt:vertex=3,label_from=30", seed=0)
        prof = profile_run(
            "decomp-arb-CC", graph, verify=False, fault_plan=plan, seed=1
        )
        labels = prof.result.labels
        assert labels.min() >= 0
        assert labels.max() < graph.num_vertices
        assert labels.shape == (graph.num_vertices,)
        assert np.issubdtype(labels.dtype, np.integer)


class TestSpecParsing:
    def test_parse_multi_clause(self):
        plan = FaultPlan.parse(
            "cas_flip:p=0.5;drop_frontier:vertices=1|2,max_fires=3"
        )
        assert [s.kind for s in plan.specs] == ["cas_flip", "drop_frontier"]
        assert plan.specs[0].probability == 0.5
        assert plan.specs[1].vertices == [1, 2]
        assert plan.specs[1].max_fires == 3

    def test_parse_rounds_and_holdback(self):
        plan = FaultPlan.parse("shift_perturb:holdback=0.8,rounds=0|1|2")
        assert plan.specs[0].holdback == 0.8
        assert plan.specs[0].rounds == [0, 1, 2]

    def test_describe_mentions_every_kind(self):
        plan = FaultPlan.parse("cas_flip;shift_perturb")
        text = plan.describe()
        assert "cas_flip" in text and "shift_perturb" in text

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            ";",
            "warp_core_breach",
            "cas_flip:p=high",
            "cas_flip:probability=2.0",
            "cas_flip:mystery=1",
            "drop_frontier:vertices",
            "shift_perturb:holdback=-0.1",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad)

    def test_parse_fault_plan_none_passthrough(self):
        assert parse_fault_plan(None) is None
