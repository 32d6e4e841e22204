"""Named suites: the paper's input graphs and its eight implementations.

The paper's graphs (Table 1) are 10^8-edge scale; the reproduction
provides three size presets of the same distributions (DESIGN.md §2):

* ``tiny``  — seconds-fast, used by the integration tests;
* ``small`` — the benchmark default (~10^5-10^6 directed edges);
* ``medium`` — a heavier sanity scale for the scaling figure.

Every preset preserves the *relationships* the paper's narrative needs:
random/orkut dense-ish single-giant-component, rMat sparse with many
components, rMat2 very dense and shallow, 3D-grid moderate diameter,
line the diameter adversary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.connectivity import (
    decomp_cc,
    hybrid_bfs_cc,
    label_prop_cc,
    multistep_cc,
    parallel_sf_pbbs_cc,
    parallel_sf_prm_cc,
    serial_sf_cc,
    shiloach_vishkin_cc,
)
from repro.connectivity.base import ConnectivityResult
from repro.errors import ParameterError
from repro.graphs import (
    CSRGraph,
    grid3d,
    line_graph,
    orkut_like,
    random_kregular,
    rmat,
)

__all__ = [
    "GraphSpec",
    "AlgorithmSpec",
    "GRAPHS",
    "ALGORITHMS",
    "FALLBACK_CHAINS",
    "PAPER_ALGORITHM_ORDER",
    "PAPER_GRAPH_ORDER",
    "TABLE2_ALGORITHM_ORDER",
    "build_graph",
    "build_suite",
    "get_algorithm",
]


@dataclass(frozen=True)
class GraphSpec:
    """One named input graph at the three size presets."""

    name: str
    description: str
    factories: Dict[str, Callable[[], CSRGraph]]

    def build(self, scale: str = "small") -> CSRGraph:
        if scale not in self.factories:
            raise ParameterError(
                f"graph {self.name!r} has no scale {scale!r}; "
                f"choose from {sorted(self.factories)}"
            )
        return self.factories[scale]()


def _rmat_sparse(scale: int, seed: int = 1) -> CSRGraph:
    # Edge factor 3.7 generated-directed-edges per vertex, the paper's
    # rMat density (n=2^27, m=5e8) — sparse enough for many components.
    n = 1 << scale
    return rmat(scale, int(n * 3.7), seed=seed)


def _rmat_dense(scale: int, seed: int = 1) -> CSRGraph:
    # The paper's rMat2 density: edge factor ~400 (n=2^20, m=4.2e8).
    n = 1 << scale
    return rmat(scale, int(n * 400), seed=seed)


GRAPHS: Dict[str, GraphSpec] = {
    "random": GraphSpec(
        "random",
        "every vertex has 5 edges to uniformly random targets (paper: "
        "n=1e8, m=5e8); one giant component",
        {
            "tiny": lambda: random_kregular(2_000, 5, seed=1),
            "small": lambda: random_kregular(100_000, 5, seed=1),
            "medium": lambda: random_kregular(400_000, 5, seed=1),
        },
    ),
    "rMat": GraphSpec(
        "rMat",
        "R-MAT power-law, sparse (paper: n=2^27, m=5e8; >13M components)",
        {
            "tiny": lambda: _rmat_sparse(11, seed=1),
            "small": lambda: _rmat_sparse(17, seed=1),
            "medium": lambda: _rmat_sparse(19, seed=1),
        },
    ),
    "rMat2": GraphSpec(
        "rMat2",
        "same generator, ~400 edges/vertex (paper: n=2^20, m=4.2e8); "
        "dense, ~5 BFS levels",
        {
            "tiny": lambda: _rmat_dense(8, seed=1),
            "small": lambda: _rmat_dense(11, seed=1),
            "medium": lambda: _rmat_dense(13, seed=1),
        },
    ),
    "3D-grid": GraphSpec(
        "3D-grid",
        "6-neighbor 3D grid (paper: n=1e8, m=3e8); one component, "
        "polynomial diameter",
        {
            "tiny": lambda: grid3d(12, seed=1),
            "small": lambda: grid3d(40, seed=1),
            "medium": lambda: grid3d(64, seed=1),
        },
    ),
    "line": GraphSpec(
        "line",
        "a path (paper: n=5e8); diameter n-1 — the BFS adversary",
        {
            "tiny": lambda: line_graph(3_000, seed=1),
            "small": lambda: line_graph(50_000, seed=1),
            "medium": lambda: line_graph(200_000, seed=1),
        },
    ),
    "com-Orkut": GraphSpec(
        "com-Orkut",
        "synthetic surrogate for the SNAP social network (3.07M "
        "vertices, 117M edges): dense skewed R-MAT + Hamiltonian "
        "cycle; one giant component (DESIGN.md §2)",
        {
            "tiny": lambda: orkut_like(1_500, 40.0, seed=1),
            "small": lambda: orkut_like(30_000, 76.0, seed=1),
            "medium": lambda: orkut_like(100_000, 76.0, seed=1),
        },
    ),
}

#: The order Table 1 / Table 2 print their columns.
PAPER_GRAPH_ORDER: List[str] = [
    "random",
    "rMat",
    "rMat2",
    "3D-grid",
    "line",
    "com-Orkut",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One named connectivity implementation."""

    name: str
    run: Callable[[CSRGraph], ConnectivityResult]
    in_paper: bool
    description: str


ALGORITHMS: Dict[str, AlgorithmSpec] = {
    "serial-SF": AlgorithmSpec(
        "serial-SF", serial_sf_cc, True, "sequential union-find spanning forest"
    ),
    "decomp-arb-CC": AlgorithmSpec(
        "decomp-arb-CC",
        lambda g, **kw: decomp_cc(g, variant="arb", **kw),
        True,
        "Algorithm 1 with Decomp-Arb (Algorithm 3)",
    ),
    "decomp-arb-hybrid-CC": AlgorithmSpec(
        "decomp-arb-hybrid-CC",
        lambda g, **kw: decomp_cc(g, variant="arb-hybrid", **kw),
        True,
        "Algorithm 1 with direction-optimizing Decomp-Arb",
    ),
    "decomp-min-CC": AlgorithmSpec(
        "decomp-min-CC",
        lambda g, **kw: decomp_cc(g, variant="min", **kw),
        True,
        "Algorithm 1 with Decomp-Min (Algorithm 2)",
    ),
    "decomp-min-hybrid-CC": AlgorithmSpec(
        "decomp-min-hybrid-CC",
        lambda g, **kw: decomp_cc(g, variant="min-hybrid", **kw),
        False,
        "Algorithm 1 with direction-optimizing Decomp-Min "
        "(engine tie-break x direction combination)",
    ),
    "parallel-SF-PBBS": AlgorithmSpec(
        "parallel-SF-PBBS",
        parallel_sf_pbbs_cc,
        True,
        "PBBS deterministic-reservation spanning forest",
    ),
    "parallel-SF-PRM": AlgorithmSpec(
        "parallel-SF-PRM",
        parallel_sf_prm_cc,
        True,
        "Patwary et al. lock-based union-find spanning forest",
    ),
    "hybrid-BFS-CC": AlgorithmSpec(
        "hybrid-BFS-CC",
        hybrid_bfs_cc,
        True,
        "direction-optimizing BFS per component (Ligra)",
    ),
    "multistep-CC": AlgorithmSpec(
        "multistep-CC",
        multistep_cc,
        True,
        "BFS giant component + label propagation (Slota et al.)",
    ),
    # Extras beyond the paper's table, for the work-efficiency story.
    "label-prop-CC": AlgorithmSpec(
        "label-prop-CC", label_prop_cc, False, "pure min-label propagation"
    ),
    "shiloach-vishkin-CC": AlgorithmSpec(
        "shiloach-vishkin-CC",
        shiloach_vishkin_cc,
        False,
        "classical O(m log n) hook-and-shortcut",
    ),
}

#: Graceful-degradation chains for the resilient runner: when an
#: algorithm keeps failing a cell (crash, verification failure, blown
#: round budget), the runner walks this chain left to right.  Chains
#: step from the most engineered implementation toward the simplest
#: sound baseline — ``serial-SF`` is deterministic, loop-free and
#: immune to every schedule-level fault, so it terminates every chain.
FALLBACK_CHAINS: Dict[str, List[str]] = {
    "decomp-arb-hybrid-CC": ["decomp-arb-CC", "serial-SF"],
    "decomp-min-hybrid-CC": ["decomp-min-CC", "serial-SF"],
    "decomp-arb-CC": ["decomp-min-CC", "serial-SF"],
    "decomp-min-CC": ["serial-SF"],
    "parallel-SF-PBBS": ["serial-SF"],
    "parallel-SF-PRM": ["serial-SF"],
    "hybrid-BFS-CC": ["serial-SF"],
    "multistep-CC": ["serial-SF"],
    "label-prop-CC": ["serial-SF"],
    "shiloach-vishkin-CC": ["serial-SF"],
}


#: Row order of the paper's Table 2.
PAPER_ALGORITHM_ORDER: List[str] = [
    "serial-SF",
    "decomp-arb-CC",
    "decomp-arb-hybrid-CC",
    "decomp-min-CC",
    "parallel-SF-PBBS",
    "parallel-SF-PRM",
    "hybrid-BFS-CC",
    "multistep-CC",
]

#: Row order of the reproduction's Table 2 artifact: the paper's eight
#: rows plus the engine-enabled Decomp-Min-Hybrid combination.
TABLE2_ALGORITHM_ORDER: List[str] = [
    *PAPER_ALGORITHM_ORDER,
    "decomp-min-hybrid-CC",
]


def build_graph(name: str, scale: str = "small") -> CSRGraph:
    """Build one named input graph at the given size preset."""
    if name not in GRAPHS:
        raise ParameterError(f"unknown graph {name!r}; choose from {sorted(GRAPHS)}")
    return GRAPHS[name].build(scale)


def build_suite(
    scale: str = "small", names: Optional[List[str]] = None
) -> Dict[str, CSRGraph]:
    """Build the whole (or a named subset of the) graph suite."""
    names = names if names is not None else PAPER_GRAPH_ORDER
    return {name: build_graph(name, scale) for name in names}


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up one registered connectivity implementation by name."""
    if name not in ALGORITHMS:
        raise ParameterError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        )
    return ALGORITHMS[name]
