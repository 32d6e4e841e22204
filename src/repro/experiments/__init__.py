"""Experiment harness: named suites, run profiles, tables and figures.

Regenerates every table and figure of the paper's evaluation section;
see DESIGN.md §4 for the experiment index and ``benchmarks/`` for the
one-bench-per-artifact entry points.
"""

from repro.experiments.calibration import (
    measure_kind_costs,
    suggest_machine_constants,
)
from repro.experiments.export import (
    export_json,
    export_resilient_table2,
    export_series_csv,
    export_table2_csv,
    to_jsonable,
)
from repro.experiments.figures import (
    ascii_series,
    clear_fig2_cache,
    fig2_thread_sweep,
    fig3_beta_sweep,
    fig4_edges_remaining,
    fig5_breakdown_min,
    fig6_breakdown_arb,
    fig7_breakdown_hybrid,
    fig8_size_scaling,
)
from repro.experiments.harness import (
    RunProfile,
    median_simulated,
    profile_run,
    sweep_seconds,
)
from repro.experiments.registry import (
    ALGORITHMS,
    FALLBACK_CHAINS,
    GRAPHS,
    PAPER_ALGORITHM_ORDER,
    PAPER_GRAPH_ORDER,
    TABLE2_ALGORITHM_ORDER,
    build_graph,
    build_suite,
    get_algorithm,
)
from repro.experiments.tables import (
    format_table1,
    format_table2,
    run_table1,
    run_table2,
)

__all__ = [
    "ALGORITHMS",
    "FALLBACK_CHAINS",
    "GRAPHS",
    "PAPER_ALGORITHM_ORDER",
    "PAPER_GRAPH_ORDER",
    "TABLE2_ALGORITHM_ORDER",
    "RunProfile",
    "ascii_series",
    "build_graph",
    "build_suite",
    "export_json",
    "export_resilient_table2",
    "export_series_csv",
    "export_table2_csv",
    "to_jsonable",
    "clear_fig2_cache",
    "fig2_thread_sweep",
    "fig3_beta_sweep",
    "fig4_edges_remaining",
    "fig5_breakdown_min",
    "fig6_breakdown_arb",
    "fig7_breakdown_hybrid",
    "fig8_size_scaling",
    "format_table1",
    "format_table2",
    "get_algorithm",
    "measure_kind_costs",
    "median_simulated",
    "profile_run",
    "suggest_machine_constants",
    "run_table1",
    "run_table2",
    "sweep_seconds",
]
