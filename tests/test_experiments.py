"""Tests for the experiment registry, harness, tables and figures."""

import dataclasses

import pytest

from repro.errors import ParameterError, VerificationError
from repro.experiments import (
    ALGORITHMS,
    GRAPHS,
    PAPER_ALGORITHM_ORDER,
    PAPER_GRAPH_ORDER,
    ascii_series,
    build_graph,
    build_suite,
    fig2_thread_sweep,
    fig3_beta_sweep,
    fig4_edges_remaining,
    fig5_breakdown_min,
    fig6_breakdown_arb,
    fig7_breakdown_hybrid,
    fig8_size_scaling,
    format_table1,
    format_table2,
    get_algorithm,
    median_simulated,
    profile_run,
    run_table1,
    run_table2,
)
from repro.pram.machine import paper_thread_sweep


class TestRegistry:
    def test_all_paper_graphs_registered(self):
        assert set(PAPER_GRAPH_ORDER) <= set(GRAPHS)

    def test_all_paper_algorithms_registered(self):
        assert set(PAPER_ALGORITHM_ORDER) <= set(ALGORITHMS)
        assert len(PAPER_ALGORITHM_ORDER) == 8  # Table 2 rows

    @pytest.mark.parametrize("name", PAPER_GRAPH_ORDER)
    def test_tiny_graphs_build(self, name):
        g = build_graph(name, "tiny")
        assert g.num_vertices > 0

    def test_scales_grow(self):
        tiny = build_graph("random", "tiny")
        small = build_graph("random", "small")
        assert small.num_edges > tiny.num_edges

    def test_unknown_graph(self):
        with pytest.raises(ParameterError):
            build_graph("petersen")

    def test_unknown_scale(self):
        with pytest.raises(ParameterError):
            build_graph("random", "galactic")

    def test_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            get_algorithm("quantum-CC")

    def test_build_suite_subset(self):
        suite = build_suite("tiny", names=["line", "3D-grid"])
        assert list(suite) == ["line", "3D-grid"]

    def test_extras_flagged_not_in_paper(self):
        assert not ALGORITHMS["label-prop-CC"].in_paper
        assert not ALGORITHMS["shiloach-vishkin-CC"].in_paper
        assert ALGORITHMS["serial-SF"].in_paper


class TestHarness:
    @pytest.fixture(scope="class")
    def tiny_line(self):
        return build_graph("line", "tiny")

    def test_profile_run_verifies(self, tiny_line):
        prof = profile_run("serial-SF", tiny_line, graph_name="line")
        assert prof.wall_seconds > 0
        assert prof.result.num_components == 1

    def test_profile_run_decomp_kwargs(self, tiny_line):
        prof = profile_run(
            "decomp-arb-CC", tiny_line, beta=0.1, seed=3, graph_name="line"
        )
        assert prof.result.stats["beta"] == 0.1

    def test_seconds_at_one_thread_exceeds_40h(self, tiny_line):
        prof = profile_run("decomp-arb-CC", tiny_line, beta=0.2, seed=1)
        assert prof.seconds_at(1) > prof.seconds_at("40h")

    def test_sweep_covers_paper_thread_labels(self, tiny_line):
        prof = profile_run("decomp-arb-CC", tiny_line, beta=0.2, seed=1)
        sweep = prof.sweep()
        assert list(sweep) == [
            str(s) if not isinstance(s, str) else s for s in paper_thread_sweep()
        ]

    def test_phase_seconds(self, tiny_line):
        prof = profile_run("decomp-min-CC", tiny_line, beta=0.2, seed=1)
        phases = prof.phase_seconds_at("40h")
        assert "bfsPhase1" in phases and "bfsPhase2" in phases

    def test_median_simulated_runs(self, tiny_line):
        t = median_simulated("decomp-arb-CC", tiny_line, "40h", trials=3, beta=0.2)
        assert t > 0.0

    def test_median_simulated_deterministic_algo_single_run(self, tiny_line):
        t = median_simulated("serial-SF", tiny_line, 1)
        assert t > 0.0


class TestTables:
    def test_table1_rows(self):
        rows = run_table1("tiny", names=["line", "random"])
        assert rows[0]["graph"] == "line"
        assert rows[1]["num_edges"] > 0
        text = format_table1(rows)
        assert "line" in text and "random" in text

    def test_table2_structure_and_render(self):
        suite = build_suite("tiny", names=["line", "3D-grid"])
        table = run_table2(graphs=suite, algorithms=["serial-SF", "decomp-arb-CC"])
        assert set(table) == {"serial-SF", "decomp-arb-CC"}
        assert set(table["serial-SF"]) == {"line", "3D-grid"}
        cell = table["decomp-arb-CC"]["line"]
        assert cell["1"] > cell["40h"] > 0
        text = format_table2(table)
        assert "Implementation" in text and "(40h)" in text

    def test_verified_table2_matches_unverified(self):
        suite = build_suite("tiny", names=["line", "3D-grid"])
        algorithms = ["serial-SF", "decomp-arb-CC"]
        plain = run_table2(graphs=suite, algorithms=algorithms)
        checked = run_table2(graphs=suite, algorithms=algorithms, verify=True)
        for algo in algorithms:
            for gname in suite:
                for column in ("1", "40h", "components"):
                    assert checked[algo][gname][column] == plain[algo][gname][column]

    def test_verified_table2_stops_at_the_wrong_cell(self, monkeypatch):
        # Plant one wrong cell: decomp-arb-CC splits vertex 0 off into
        # its own component, on 3D-grid only.
        real = ALGORITHMS["decomp-arb-CC"]

        def doctored(graph, **kwargs):
            result = real.run(graph, **kwargs)
            if graph is suite["3D-grid"]:
                labels = result.labels.copy()
                labels[0] = labels.max() + 1
                result.labels = labels
            return result

        monkeypatch.setitem(
            ALGORITHMS, "decomp-arb-CC", dataclasses.replace(real, run=doctored)
        )
        suite = build_suite("tiny", names=["line", "3D-grid"])
        algorithms = ["serial-SF", "decomp-arb-CC"]
        table = run_table2(graphs=suite, algorithms=algorithms)
        assert set(table["decomp-arb-CC"]) == {"line", "3D-grid"}
        with pytest.raises(VerificationError) as excinfo:
            run_table2(graphs=suite, algorithms=algorithms, verify=True)
        assert str(excinfo.value).startswith("decomp-arb-CC on 3D-grid: edge ")
        assert excinfo.value.reason == "crossing-edge"


class TestFigures:
    @pytest.fixture(scope="class")
    def tiny_grid(self):
        return build_graph("3D-grid", "tiny")

    def test_fig2_series(self, tiny_grid):
        series = fig2_thread_sweep(
            tiny_grid, "3D-grid", algorithms=["serial-SF", "decomp-arb-CC"]
        )
        assert set(series) == {"serial-SF", "decomp-arb-CC"}
        # serial-SF is flat; decomp scales
        sf = list(series["serial-SF"].values())
        assert max(sf) == pytest.approx(min(sf))
        arb = series["decomp-arb-CC"]
        assert arb["1"] > arb["40h"]

    def test_fig3_series(self, tiny_grid):
        out = fig3_beta_sweep(tiny_grid, "3D-grid", betas=[0.1, 0.5])
        assert set(out) == {
            "decomp-arb-CC",
            "decomp-arb-hybrid-CC",
            "decomp-min-CC",
        }
        assert set(out["decomp-arb-CC"]) == {0.1, 0.5}

    def test_fig4_series_monotone(self, tiny_grid):
        out = fig4_edges_remaining(tiny_grid, "3D-grid", betas=[0.2])
        series = out[0.2]
        assert series[0] == tiny_grid.num_edges
        assert all(a > b for a, b in zip(series, series[1:]))

    def test_fig4_line_uses_small_betas(self):
        g = build_graph("line", "tiny")
        out = fig4_edges_remaining(g, "line")
        assert min(out) < 0.01  # the paper's line panel starts at 0.003

    def test_fig5_phases(self):
        out = fig5_breakdown_min(graphs=["line"], scale="tiny")
        assert set(out) == {"line"}
        phases = out["line"]
        assert {"init", "bfsPre", "bfsPhase1", "bfsPhase2", "contractGraph"} <= set(
            phases
        )
        assert phases["bfsPhase1"] > 0

    def test_fig6_phases(self):
        out = fig6_breakdown_arb(graphs=["line"], scale="tiny")
        assert "bfsMain" in out["line"]
        assert out["line"]["bfsMain"] > 0

    def test_fig7_phases_line_never_dense(self):
        # the paper's claim holds at benchmark scale for the top-level
        # decompositions; deep recursion levels (a few hundred
        # contracted vertices) may fire a dense round whose time is
        # invisible, as in the paper's bars
        out = fig7_breakdown_hybrid(graphs=["line"], scale="small")
        total = sum(out["line"].values())
        assert out["line"]["bfsDense"] < 0.01 * total
        assert out["line"]["bfsSparse"] > 0.25 * total

    def test_fig8_near_linear_scaling(self):
        out = fig8_size_scaling(edge_counts=[20_000, 40_000, 80_000])
        sizes = sorted(out)
        times = [out[s] for s in sizes]
        assert times[0] < times[-1]
        # near-linear: quadrupling m should stay well under 8x time
        assert times[-1] / times[0] < 8.0

    def test_ascii_series_renders(self):
        text = ascii_series({"algo": {"1": 1.0, "2": 0.5}})
        assert "algo:" in text and "#" in text
