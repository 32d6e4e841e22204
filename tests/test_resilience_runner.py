"""Tests for the ResilientRunner: retry, gating, degradation, logging."""

import pytest

from repro.errors import ResilienceExhaustedError, VerificationError
from repro.graphs import line_graph
from repro.resilience import (
    FaultPlan,
    ResilientRunner,
    RetryPolicy,
    parse_fault_plan,
)


@pytest.fixture
def path_graph():
    return line_graph(200)


def one_shot_fault():
    """A plan that corrupts exactly the first run, then goes inert.

    Dropping both endpoints of the cut edge (10, 11) of a path ensures
    neither side ever classifies the edge, so the labeling splits the
    component — always detected by verification.
    """
    return parse_fault_plan("drop_frontier:vertices=10|11", seed=0, sabotage_runs=1)


def persistent_fault():
    return parse_fault_plan(
        "drop_frontier:vertices=10|11,max_fires=1000000",
        seed=0,
        sabotage_runs=10**9,
    )


class TestRetryRecovery:
    def test_retry_recovers_from_one_shot_fault(self, path_graph):
        runner = ResilientRunner(fault_plan=one_shot_fault())
        outcome = runner.run_cell(
            "decomp-arb-CC", path_graph, graph_name="line", seed=1
        )
        assert outcome.attempts == 2
        assert not outcome.degraded
        assert outcome.algorithm == "decomp-arb-CC"
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.error_type == "VerificationError"
        assert failure.reason == "crossing-edge"
        assert failure.action == "retry"
        assert runner.failure_log == outcome.failures

    def test_retry_rotates_seed(self, path_graph):
        runner = ResilientRunner(
            retry=RetryPolicy(seed_stride=1000), fault_plan=one_shot_fault()
        )
        outcome = runner.run_cell(
            "decomp-arb-CC", path_graph, graph_name="line", seed=5
        )
        assert outcome.failures[0].seed == 5  # first attempt keeps base seed
        # The winning attempt ran under seed 1005; its result verifies.
        assert outcome.profile.result.num_components == 1

    def test_backoff_charged_to_winning_profile(self, path_graph):
        policy = RetryPolicy(backoff_base=512.0, backoff_factor=2.0)
        runner = ResilientRunner(retry=policy, fault_plan=one_shot_fault())
        outcome = runner.run_cell(
            "decomp-arb-CC", path_graph, graph_name="line", seed=1
        )
        by_phase = outcome.profile.tracker.work_by_phase()
        assert by_phase.get("resilience") == pytest.approx(512.0)

    def test_clean_run_charges_no_backoff(self, path_graph):
        runner = ResilientRunner()
        outcome = runner.run_cell(
            "decomp-arb-CC", path_graph, graph_name="line", seed=1
        )
        assert outcome.attempts == 1
        assert outcome.failures == []
        assert "resilience" not in outcome.profile.tracker.work_by_phase()

    def test_verification_gating_can_be_disabled(self, path_graph):
        # Without gating the corrupted first attempt is accepted as-is:
        # the labeling completes, it is just wrong.
        runner = ResilientRunner(verify=False, fault_plan=one_shot_fault())
        outcome = runner.run_cell(
            "decomp-arb-CC", path_graph, graph_name="line", seed=1
        )
        assert outcome.attempts == 1
        with pytest.raises(VerificationError):
            from repro.analysis.verify import verify_labeling

            verify_labeling(path_graph, outcome.profile.result.labels)


class TestGracefulDegradation:
    def test_persistent_fault_degrades_to_serial_sf(self, path_graph):
        # The fault plan corrupts every decomp attempt; serial-SF has no
        # frontier to drop, so the chain bottoms out there.
        runner = ResilientRunner(
            retry=RetryPolicy(max_attempts=2), fault_plan=persistent_fault()
        )
        outcome = runner.run_cell(
            "decomp-arb-CC", path_graph, graph_name="line", seed=1
        )
        assert outcome.degraded
        assert outcome.requested == "decomp-arb-CC"
        assert outcome.algorithm == "serial-SF"
        # 2 attempts for decomp-arb-CC, 2 for decomp-min-CC, 1 winning.
        assert outcome.attempts == 5
        actions = [f.action for f in outcome.failures]
        assert actions == ["retry", "fallback", "retry", "fallback"]

    def test_exhaustion_raises_with_failure_log(self, path_graph):
        runner = ResilientRunner(
            retry=RetryPolicy(max_attempts=2),
            fallbacks={},  # no degradation allowed
            fault_plan=persistent_fault(),
        )
        with pytest.raises(ResilienceExhaustedError) as excinfo:
            runner.run_cell("decomp-arb-CC", path_graph, graph_name="line", seed=1)
        err = excinfo.value
        assert len(err.failures) == 2
        assert err.failures[-1].action == "gave-up"
        assert runner.failure_log == err.failures

    def test_custom_fallback_chain(self, path_graph):
        runner = ResilientRunner(
            retry=RetryPolicy(max_attempts=1),
            fallbacks={"decomp-arb-CC": ["multistep-CC"]},
            fault_plan=persistent_fault(),
        )
        outcome = runner.run_cell(
            "decomp-arb-CC", path_graph, graph_name="line", seed=1
        )
        assert outcome.algorithm == "multistep-CC"


class TestSweepIntegration:
    def test_table2_records_attempts_and_failures(self):
        graphs = {"line": line_graph(150)}
        runner = ResilientRunner(fault_plan=one_shot_fault())
        sweep = runner.run_table2(
            graphs=graphs, algorithms=["decomp-arb-CC", "serial-SF"], seed=1
        )
        cell = sweep["table"]["decomp-arb-CC"]["line"]
        assert cell["attempts"] == 2
        assert cell["algorithm"] == "decomp-arb-CC"
        assert len(cell["failures"]) == 1
        assert sweep["attempts"]["decomp-arb-CC"]["line"] == 2
        assert sweep["resolved"]["decomp-arb-CC"]["line"] == "decomp-arb-CC"
        # serial-SF ran clean (the plan was used up by the first cell).
        assert sweep["attempts"]["serial-SF"]["line"] == 1
        assert len(sweep["failures"]) == 1

    def test_export_resilient_table2(self, tmp_path):
        import json

        from repro.experiments import export_resilient_table2

        graphs = {"line": line_graph(120)}
        runner = ResilientRunner(
            retry=RetryPolicy(max_attempts=1), fault_plan=persistent_fault()
        )
        sweep = runner.run_table2(
            graphs=graphs, algorithms=["decomp-arb-CC"], seed=1
        )
        out = tmp_path / "sweep.json"
        export_resilient_table2(sweep, out)
        data = json.loads(out.read_text())
        assert data["degraded_cells"] == {"decomp-arb-CC/line": "serial-SF"}
        assert data["total_failures"] == 2
        assert data["failures"][0]["error_type"] == "VerificationError"
        assert "decomp-arb-CC" in data["table"]


class TestFaultPlanArming:
    def test_plan_is_inert_outside_activation(self, path_graph):
        from repro.runtime.context import current_context

        plan = one_shot_fault()
        assert current_context().fault_plan is None
        with plan.activate() as active:
            assert current_context().fault_plan is active
            assert plan.armed
        assert current_context().fault_plan is None

    def test_sabotage_budget_expires(self):
        plan = FaultPlan.parse("cas_flip", sabotage_runs=2)
        for expect_armed in (True, True, False, False):
            with plan.activate():
                assert plan.armed is expect_armed
