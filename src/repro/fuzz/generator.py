"""Seed-driven case sampling: the fuzzer's adversarial input stream.

A :class:`CaseGenerator` is a pure function of its seed: case *i* is
derived from ``default_rng((seed, i))``, so the stream is identical
across runs, platforms and interruptions (the acceptance contract:
``repro fuzz --seed 7 --max-cases 200`` twice yields the same cases).

The sampled distribution is deliberately adversarial rather than
uniform (Liu-Tarjan: concurrent labeling algorithms hide
schedule-dependent bugs that only structured instances surface):

* shape families — paths, stars, cliques, lollipops and
  bridged-cliques (single-edge sensitivity);
* canonicalization attacks — raw edge lists heavy with duplicates and
  self-loops, isolated max-index vertices;
* degenerate sizes — empty, single-vertex and two-vertex graphs;
* bulk randomness — rMat and G(n, m) at randomized (n, m);

crossed with randomized run configs: every registered variant, both
execution backends, a sweep of beta, optional sanitizer arming, and
(for the decomp variants) optional deterministic fault plans.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.fuzz.case import CaseConfig, CaseGraph, FuzzCase

__all__ = ["CaseGenerator", "FUZZ_ALGORITHMS"]

#: The implementations the fuzzer samples: the paper's rows plus the
#: engine-only variant — every labeling algorithm the registry exposes.
FUZZ_ALGORITHMS: Tuple[str, ...] = (
    "decomp-arb-CC",
    "decomp-arb-hybrid-CC",
    "decomp-min-CC",
    "decomp-min-hybrid-CC",
    "hybrid-BFS-CC",
    "multistep-CC",
    "label-prop-CC",
    "shiloach-vishkin-CC",
    "parallel-SF-PBBS",
    "parallel-SF-PRM",
    "serial-SF",
)

#: Decomp variants appear more often: they are the paper's subject and
#: the only algorithms the fault hooks and both engine backends reach.
_DECOMP_WEIGHT = 3

_BETAS = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8)

_FAULT_TEMPLATES = (
    "cas_flip:p=0.5",
    "cas_flip:p=1.0",
    "shift_perturb:holdback=0.5",
    "shift_perturb:holdback=0.9",
    "drop_frontier:p=0.3",
    "label_corrupt:p=1.0",
    "drop_frontier:p=0.2;cas_flip:p=0.5",
)


class CaseGenerator:
    """Deterministic stream of :class:`FuzzCase` objects for one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        weighted: List[str] = []
        for name in FUZZ_ALGORITHMS:
            weighted.extend(
                [name] * (_DECOMP_WEIGHT if name.startswith("decomp-") else 1)
            )
        self._algorithms = tuple(weighted)

    def case(self, index: int) -> FuzzCase:
        """Case *index* of this seed's stream (random access, pure)."""
        rng = np.random.default_rng((self.seed, index))
        graph = self._sample_graph(rng)
        config = self._sample_config(rng)
        return FuzzCase(
            graph=graph,
            config=config,
            case_id=f"s{self.seed}-{index:04d}",
        )

    def cases(self) -> Iterator[FuzzCase]:
        """The (unbounded) case stream; callers slice it."""
        index = 0
        while True:
            yield self.case(index)
            index += 1

    # -- sampling ----------------------------------------------------------

    def _sample_graph(self, rng: np.random.Generator) -> CaseGraph:
        family = rng.choice(
            [
                "path",
                "star",
                "clique",
                "lollipop",
                "bridged-cliques",
                "near-empty",
                "rmat",
                "random",
                "edge-soup",
            ],
            p=[0.12, 0.10, 0.08, 0.12, 0.12, 0.10, 0.12, 0.12, 0.12],
        )
        if family == "edge-soup":
            return self._sample_edge_soup(rng)
        if family == "path":
            params = {"n": int(rng.integers(1, 120))}
            if rng.random() < 0.5:
                params["relabel_seed"] = int(rng.integers(0, 1 << 16))
            return CaseGraph(kind="family", family="path", params=params)
        if family == "star":
            return CaseGraph(
                kind="family", family="star", params={"n": int(rng.integers(1, 100))}
            )
        if family == "clique":
            return CaseGraph(
                kind="family", family="clique", params={"n": int(rng.integers(1, 24))}
            )
        if family == "lollipop":
            return CaseGraph(
                kind="family",
                family="lollipop",
                params={
                    "clique": int(rng.integers(2, 12)),
                    "tail": int(rng.integers(1, 40)),
                },
            )
        if family == "bridged-cliques":
            return CaseGraph(
                kind="family",
                family="bridged-cliques",
                params={
                    "clique1": int(rng.integers(1, 12)),
                    "clique2": int(rng.integers(1, 12)),
                    # Isolated tail past the max connected id: the
                    # max-index-vertex degenerate case.
                    "isolated": int(rng.integers(0, 4)),
                },
            )
        if family == "near-empty":
            return CaseGraph(
                kind="family",
                family="near-empty",
                params={"n": int(rng.integers(0, 3))},
            )
        if family == "rmat":
            scale = int(rng.integers(2, 8))
            m = int(rng.integers(0, 4 * (1 << scale)))
            return CaseGraph(
                kind="family",
                family="rmat",
                params={"scale": scale, "m": m, "seed": int(rng.integers(0, 1 << 16))},
            )
        n = int(rng.integers(1, 150))
        m = int(rng.integers(0, 3 * n))
        return CaseGraph(
            kind="family",
            family="random",
            params={"n": n, "m": m, "seed": int(rng.integers(0, 1 << 16))},
        )

    def _sample_edge_soup(self, rng: np.random.Generator) -> CaseGraph:
        """Raw edge lists heavy with duplicates and self-loops.

        Attacks the builder's symmetrize/dedup/loop-removal path and
        the contraction hash table, not just the algorithms.
        """
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 80))
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        # Force heavy duplication: overwrite a slice with repeats of
        # one edge, and another with self-loops.
        if m >= 4:
            dup = int(rng.integers(0, n))
            k = m // 3
            src[:k] = dup
            dst[:k] = (dup + 1) % n
            loops = rng.integers(0, n, size=m - (2 * m) // 3)
            src[-loops.size :] = loops
            dst[-loops.size :] = loops
        # Occasionally declare extra isolated vertices past max(id).
        extra = int(rng.integers(0, 5)) if rng.random() < 0.4 else 0
        return CaseGraph(
            kind="edges",
            num_vertices=n + extra,
            edges=tuple((int(u), int(v)) for u, v in zip(src, dst)),
        )

    def _sample_config(self, rng: np.random.Generator) -> CaseConfig:
        algorithm = str(rng.choice(self._algorithms))
        beta = float(rng.choice(_BETAS))
        seed = int(rng.integers(0, 1 << 16))
        sanitize = bool(rng.random() < 0.25)
        fault: Optional[str] = None
        fault_seed = 0
        if algorithm.startswith("decomp-") and rng.random() < 0.2:
            fault = str(rng.choice(_FAULT_TEMPLATES))
            fault_seed = int(rng.integers(0, 1 << 16))
        backends: Tuple[str, ...] = ("reference", "fast")
        if fault is not None:
            # Fault plans consume their RNG stream per activation, so a
            # fault case runs once on one sampled backend.
            backends = (str(rng.choice(backends)),)
        return CaseConfig(
            algorithm=algorithm,
            beta=beta,
            seed=seed,
            backends=backends,
            sanitize=sanitize,
            fault=fault,
            fault_seed=fault_seed,
        )
