"""High-level low-diameter decomposition API.

The Miller-Peng-Xu decomposition is useful far beyond connectivity
(SDD solvers, metric embeddings, ...), so the library exposes it as a
first-class operation: one call returning the partition labels together
with the measured quality — inter-edge fraction vs. the theoretical
bound and partition radii vs. the O(log n / beta) guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.decomp import DECOMP_VARIANTS
from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph

__all__ = ["LowDiameterDecomposition", "low_diameter_decomposition"]


@dataclass(eq=False)
class LowDiameterDecomposition:
    """A (beta, d)-decomposition with measured quality.

    Attributes
    ----------
    labels:
        Per-vertex partition label (the partition's BFS-center id).
    num_partitions:
        Number of partitions (including singletons).
    inter_edge_fraction:
        Measured fraction of undirected edges crossing partitions.
    fraction_bound:
        The theoretical expectation bound: beta for ``variant="min"``,
        2*beta otherwise (Theorem 2; ``min-hybrid``'s dense rounds
        adopt arbitrarily, so it carries the arbitrary rule's bound).
    max_radius / radius_bound:
        Worst vertex-to-center hop distance, and log(n)/beta.
    """

    labels: np.ndarray
    beta: float
    variant: str
    num_partitions: int
    inter_edge_fraction: float
    fraction_bound: float
    max_radius: int
    radius_bound: float

    def partition_sizes(self) -> np.ndarray:
        """Sizes of the partitions, descending."""
        _, counts = np.unique(self.labels, return_counts=True)
        return np.sort(counts)[::-1]


def low_diameter_decomposition(
    graph: CSRGraph,
    beta: float,
    variant: Literal["min", "arb", "arb-hybrid", "min-hybrid"] = "arb",
    seed: int = 1,
    schedule_mode: str = "permutation",
) -> LowDiameterDecomposition:
    """Partition *graph* into low-diameter clusters (Miller-Peng-Xu).

    Each partition has diameter O(log n / beta) w.h.p. and at most
    ``fraction_bound * m`` edges cross partitions in expectation.
    O(m) expected work, O(log^2 n / beta) depth w.h.p.
    """
    if variant not in DECOMP_VARIANTS:
        raise ParameterError(
            f"unknown variant {variant!r}; expected one of {sorted(DECOMP_VARIANTS)}"
        )
    from repro.analysis.stats import partition_radii

    dec = DECOMP_VARIANTS[variant](
        graph, beta, seed=seed, schedule_mode=schedule_mode
    )
    radii = partition_radii(graph, dec.labels)
    m = max(graph.num_edges, 1)
    return LowDiameterDecomposition(
        labels=dec.labels,
        beta=beta,
        variant=variant,
        num_partitions=dec.num_components,
        inter_edge_fraction=(dec.num_inter_directed / 2) / m,
        fraction_bound=beta if variant == "min" else 2.0 * beta,
        max_radius=int(radii.max(initial=0)),
        radius_bound=float(np.log(max(graph.num_vertices, 2)) / beta),
    )
