"""Table renderers: the paper's Table 1 (inputs) and Table 2 (times).

Each ``run_*`` function computes the underlying data (returned as plain
dicts so tests and benches can assert on it); each ``format_*`` renders
the paper-shaped ASCII table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.harness import profile_run
from repro.experiments.registry import TABLE2_ALGORITHM_ORDER, build_suite
from repro.graphs.csr import CSRGraph

__all__ = [
    "run_table1",
    "format_table1",
    "run_table2",
    "format_table2",
]


def run_table1(
    scale: str = "small", names: Optional[Sequence[str]] = None
) -> List[Dict[str, object]]:
    """Table 1: input graph sizes (vertices, undirected edges)."""
    suite = build_suite(scale, list(names) if names else None)
    rows = []
    for name, graph in suite.items():
        rows.append(
            {
                "graph": name,
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
            }
        )
    return rows


def format_table1(rows: List[Dict[str, object]]) -> str:
    """Render Table 1 rows in the paper's layout."""
    out = ["Input Graph        Num. Vertices   Num. Edges"]
    for r in rows:
        out.append(
            f"{r['graph']:<18} {r['num_vertices']:>13,} {r['num_edges']:>12,}"
        )
    return "\n".join(out)


def run_table2(
    scale: str = "small",
    graphs: Optional[Dict[str, CSRGraph]] = None,
    algorithms: Optional[Sequence[str]] = None,
    beta: float = 0.2,
    seed: int = 1,
    verify: bool = False,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Table 2: simulated times for each implementation on each graph.

    Returns ``{algorithm: {graph: {"1": seconds, "40h": seconds}}}``.
    One real run per cell; both thread columns derive from its
    work/depth profile (DESIGN.md §5).  The default row set is
    :data:`~repro.experiments.registry.TABLE2_ALGORITHM_ORDER` — the
    paper's eight rows plus Decomp-Min-Hybrid.

    With *verify*, every cell's labeling is checked after its timed
    run, and the first wrong cell raises a
    :class:`~repro.errors.VerificationError` naming its algorithm and
    graph.
    """
    graphs = graphs if graphs is not None else build_suite(scale)
    algorithms = list(algorithms) if algorithms else TABLE2_ALGORITHM_ORDER
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for algo in algorithms:
        table[algo] = {}
        for gname, graph in graphs.items():
            kwargs = {"beta": beta, "seed": seed} if algo.startswith("decomp-") else {}
            prof = profile_run(algo, graph, graph_name=gname, verify=verify, **kwargs)
            table[algo][gname] = {
                "1": prof.seconds_at(1),
                "40h": prof.seconds_at("40h"),
                "wall": prof.wall_seconds,
                "components": float(prof.result.num_components),
            }
    return table


def format_table2(table: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    """Render in the paper's layout: (1) and (40h) columns per graph."""
    graphs = list(next(iter(table.values())).keys()) if table else []
    header = f"{'Implementation':<22}" + "".join(
        f"{g:>21}" for g in graphs
    )
    sub = f"{'':<22}" + "".join(f"{'(1)':>11}{'(40h)':>10}" for _ in graphs)
    lines = [header, sub]
    for algo, row in table.items():
        cells = ""
        for g in graphs:
            t1 = row[g]["1"]
            t40 = row[g]["40h"]
            if algo == "serial-SF":
                cells += f"{t1:>11.4g}{'-':>10}"
            else:
                cells += f"{t1:>11.4g}{t40:>10.4g}"
        lines.append(f"{algo:<22}" + cells)
    return "\n".join(lines)
