"""Tests for round budgets and the structured errors."""

import pytest

from repro.errors import (
    ConvergenceError,
    GraphFormatError,
    ParameterError,
    ReproError,
    VerificationError,
)
from repro.resilience import (
    DECOMP_ROUND_FACTOR,
    DECOMP_ROUND_SLACK,
    RoundBudget,
)


class TestRoundBudget:
    def test_check_under_budget_is_silent(self):
        budget = RoundBudget(max_rounds=10, algorithm="test")
        for r in range(11):
            budget.check(r)  # 10 == max_rounds is still legal

    def test_check_over_budget_raises_structured(self):
        budget = RoundBudget(max_rounds=10, algorithm="decomp-arb")
        with pytest.raises(ConvergenceError) as excinfo:
            budget.check(11)
        err = excinfo.value
        assert err.algorithm == "decomp-arb"
        assert err.rounds_used == 11
        assert err.budget == 10
        assert "decomp-arb" in str(err)

    def test_remaining_clamps_at_zero(self):
        budget = RoundBudget(max_rounds=5)
        assert budget.remaining(2) == 3
        assert budget.remaining(9) == 0

    def test_for_decomposition_scales_with_log_n_over_beta(self):
        small = RoundBudget.for_decomposition(1_000, beta=0.2)
        big = RoundBudget.for_decomposition(1_000_000, beta=0.2)
        tight = RoundBudget.for_decomposition(1_000, beta=0.05)
        assert big.max_rounds > small.max_rounds
        assert tight.max_rounds > small.max_rounds
        # Sanity-check the documented constants are what is in force.
        assert small.max_rounds >= DECOMP_ROUND_SLACK
        assert DECOMP_ROUND_FACTOR >= 2

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ParameterError):
            RoundBudget(max_rounds=0)

    def test_decomposition_never_trips_on_healthy_runs(self):
        # The default budget must be far above real round counts.
        from repro.decomp import decomp_arb
        from repro.graphs import line_graph

        graph = line_graph(2_000, seed=1)
        decomposition = decomp_arb(graph, beta=0.2, seed=1)
        budget = RoundBudget.for_decomposition(2_000, beta=0.2)
        assert decomposition.num_rounds < budget.max_rounds


class TestStructuredErrors:
    def test_convergence_error_message_only_back_compat(self):
        err = ConvergenceError("legacy message")
        assert str(err) == "legacy message"
        assert err.algorithm is None
        assert err.rounds_used is None
        assert err.budget is None

    def test_convergence_error_composes_message(self):
        err = ConvergenceError(algorithm="pointer-jump", rounds_used=99, budget=64)
        assert "pointer-jump" in str(err)
        assert "99" in str(err) and "64" in str(err)

    def test_verification_error_reason(self):
        assert VerificationError("msg").reason is None
        assert VerificationError("msg", reason="shape").reason == "shape"

    def test_graph_format_error_line_info(self):
        plain = GraphFormatError("bad file")
        assert plain.line_number is None and plain.line_text is None
        located = GraphFormatError("bad file", line_number=3, line_text="a b c")
        assert located.line_number == 3
        assert located.line_text == "a b c"
        assert "line 3" in str(located) and "a b c" in str(located)

    def test_hierarchy(self):
        # Everything the CLI converts to exit code 2 derives from
        # ReproError; parameter/spec errors stay ValueErrors too.
        for cls in (
            ConvergenceError,
            GraphFormatError,
            ParameterError,
            VerificationError,
        ):
            assert issubclass(cls, ReproError)
        assert issubclass(ParameterError, ValueError)
