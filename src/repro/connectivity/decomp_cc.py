"""Algorithm 1: decomposition-based connected components (the paper).

    procedure CC(G):
        L  = DECOMP(G, beta)
        G' = CONTRACT(G, L)
        if |E'| = 0: return L
        L' = CC(G')
        return RELABELUP(L, L')

Each DECOMP removes at least a (1 - beta) [min] / (1 - 2*beta) [arb]
fraction of edges in expectation (usually far more, because contraction
merges duplicate edges — Figure 4), so there are O(log m) iterations
w.h.p.; total expected work O(m), depth O(log^3 n) w.h.p. (Theorem 1).

We run the recursion as an explicit loop with an unwind stack — the
iterations are a straight chain, and the loop gives the harness natural
access to the per-iteration edge counts (Figure 4 series).  The
downward pass is :func:`contraction_levels`, which the spanning-forest
extraction consumes too.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.connectivity.base import ConnectivityResult
from repro.decomp import DECOMP_VARIANTS
from repro.decomp.base import Decomposition
from repro.decomp.contract import Contraction, contract
from repro.errors import ConvergenceError, ParameterError
from repro.graphs.csr import CSRGraph
from repro.runtime.context import current_context

__all__ = ["decomp_cc", "contraction_levels", "DEFAULT_BETA", "LEVEL_SEED_STRIDE"]

#: The experiments' default decomposition parameter; the paper's
#: Figure 3 locates the best beta between 0.05 and 0.2.
DEFAULT_BETA = 0.2

#: Iteration backstop far above the O(log m) bound for any feasible input.
_MAX_ITERATIONS = 200

#: Level l decomposes with seed ``seed + LEVEL_SEED_STRIDE * l``, so
#: every level draws an independent stream.
LEVEL_SEED_STRIDE = 1000003

#: Level l's contraction deduplicates with seed ``seed + 7 * l``.
_DEDUP_SEED_STRIDE = 7


def contraction_levels(
    graph: CSRGraph,
    beta: float,
    variant: str = "arb",
    seed: int = 1,
    schedule_mode: str = "permutation",
    remove_duplicates: bool = True,
    **variant_kwargs,
) -> Iterator[Tuple[CSRGraph, Decomposition, Contraction]]:
    """Algorithm 1's downward pass: decompose and contract until |E'| = 0.

    Yields ``(level_graph, decomposition, contraction)`` for each level,
    the base case last.  The contraction is charged to the
    ``contractGraph`` phase.  An unknown *variant* raises
    :class:`~repro.errors.ParameterError`; a chain longer than the
    iteration backstop raises :class:`~repro.errors.ConvergenceError`.
    """
    if variant not in DECOMP_VARIANTS:
        raise ParameterError(
            f"unknown variant {variant!r}; expected one of {sorted(DECOMP_VARIANTS)}"
        )
    decomp_fn = DECOMP_VARIANTS[variant]
    tracker = current_context().tracker
    current = graph
    for level in range(_MAX_ITERATIONS):
        decomposition = decomp_fn(
            current,
            beta,
            seed=seed + LEVEL_SEED_STRIDE * level,
            schedule_mode=schedule_mode,
            **variant_kwargs,
        )
        with tracker.phase("contractGraph"):
            contraction = contract(
                decomposition,
                current.num_vertices,
                remove_duplicates=remove_duplicates,
                dedup_seed=seed + _DEDUP_SEED_STRIDE * level,
            )
        yield current, decomposition, contraction
        if contraction.is_base_case:
            return
        current = contraction.graph
    raise ConvergenceError(
        f"Algorithm 1 exceeded {_MAX_ITERATIONS} iterations "
        f"(beta={beta}, variant={variant})",
        algorithm=f"decomp-{variant}-CC",
        rounds_used=_MAX_ITERATIONS,
        budget=_MAX_ITERATIONS,
    )


def decomp_cc(
    graph: CSRGraph,
    beta: float = DEFAULT_BETA,
    variant: str = "arb",
    seed: int = 1,
    schedule_mode: str = "permutation",
    remove_duplicates: bool = True,
    **variant_kwargs,
) -> ConnectivityResult:
    """Connected components via recursive decomposition + contraction.

    Parameters
    ----------
    graph:
        Symmetric CSR graph.
    beta:
        Decomposition parameter; must be in (0, 1).  The linear-work
        guarantee needs beta < 1 for ``variant="min"`` and beta < 1/2
        for the arbitrary-tie-break variants (Theorem 2); values
        outside that are allowed for experiments (Figure 3 sweeps to
        0.95) but void the work bound.
    variant:
        ``"min"`` (Algorithm 2), ``"arb"`` (Algorithm 3, default),
        ``"arb-hybrid"`` (direction-optimizing) — the paper's
        decomp-min-CC / decomp-arb-CC / decomp-arb-hybrid-CC — or
        ``"min-hybrid"`` (Decomp-Min with the same dense rounds).
    seed:
        Base seed; each iteration derives an independent stream.
    schedule_mode:
        Start-time schedule: the paper's ``"permutation"`` simulation
        or exact ``"exponential"`` draws.
    remove_duplicates:
        Pass-through to contraction (ablation hook).
    variant_kwargs:
        Extra arguments for the variant (e.g. ``dense_threshold`` for
        the hybrid).

    Returns
    -------
    ConnectivityResult
        Labels in ``[0, n)``; ``edges_per_iteration`` holds the
        undirected edge count entering each DECOMP call (Figure 4).
    """
    # ---- downward pass: decompose + contract until |E'| = 0. --------
    unwind: List[Contraction] = []
    edges_per_iteration: List[int] = [graph.num_edges]
    rounds_per_iteration: List[int] = []
    for _, decomposition, contraction in contraction_levels(
        graph, beta, variant, seed, schedule_mode, remove_duplicates, **variant_kwargs
    ):
        rounds_per_iteration.append(decomposition.num_rounds)
        unwind.append(contraction)
        if not contraction.is_base_case:
            edges_per_iteration.append(contraction.graph.num_edges)

    # ---- upward pass: RELABELUP through the contraction chain. ------
    # At the deepest level every component is maximal, so its label is
    # its own component id.  One level up, a non-singleton component
    # takes the label of its contracted vertex (offset past that
    # level's singleton label space); singletons keep distinct labels.
    tracker = current_context().tracker
    with tracker.phase("contractGraph"):
        last = unwind[-1]
        labels = np.arange(last.num_components, dtype=np.int64)
        for contraction in reversed(unwind):
            k = contraction.num_components
            sub = contraction.component_to_sub
            component_labels = np.empty(k, dtype=np.int64)
            is_sub = sub >= 0
            if contraction is last:
                component_labels = np.arange(k, dtype=np.int64)
            else:
                # Non-singletons inherit the deeper labels; singletons
                # get fresh labels above the deeper label space.
                deeper_space = int(labels.max()) + 1 if labels.size else 0
                component_labels[is_sub] = labels[sub[is_sub]]
                num_singletons = int((~is_sub).sum())
                component_labels[~is_sub] = deeper_space + np.arange(
                    num_singletons, dtype=np.int64
                )
            labels = component_labels[contraction.vertex_to_component]
            tracker.add("gather", work=float(labels.size), depth=1.0)

    return ConnectivityResult(
        labels=labels,
        algorithm=f"decomp-{variant}-CC",
        iterations=len(unwind),
        edges_per_iteration=edges_per_iteration,
        stats={
            "beta": beta,
            "rounds_per_iteration": rounds_per_iteration,
            "schedule_mode": schedule_mode,
        },
    )
