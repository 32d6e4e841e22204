"""Common connectivity result type and label utilities.

Every connectivity implementation in this package — the paper's
decomposition algorithm and all six baselines — returns a
:class:`ConnectivityResult`, so the harness, verifier and tests treat
them interchangeably.  Labels are only meaningful up to renaming (the
problem statement requires L(u) = L(v) iff same component), so
:func:`canonicalize_labels` provides the normal form the equivalence
checks compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.primitives.sort import count_distinct
from repro.runtime.context import current_context

__all__ = ["ConnectivityResult", "canonicalize_labels", "num_components"]


@dataclass(eq=False)
class ConnectivityResult:
    """Connected-components labeling plus run metadata.

    Attributes
    ----------
    labels:
        One label per vertex; equal labels iff same component.
    algorithm:
        Name of the implementation (the paper's Table 2 row names).
    iterations:
        Outer iterations: DECOMP+CONTRACT calls for decomp-CC, hook/
        compress rounds for SV, sweeps for label propagation, 1 for
        the sequential baselines.
    edges_per_iteration:
        For decomp-CC: undirected edge count entering each iteration,
        starting with the original m — the series of Figure 4.  Other
        algorithms leave it empty.
    stats:
        Free-form per-algorithm diagnostics (rounds, frontier sizes,
        direction decisions, ...).

    Results compare by identity, like every result record holding an
    ndarray: a field-wise ``==`` would ask an element-wise array
    comparison for one truth value.
    """

    labels: np.ndarray
    algorithm: str
    iterations: int = 1
    edges_per_iteration: List[int] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def num_components(self) -> int:
        return num_components(self.labels)

    def component_sizes(self) -> np.ndarray:
        """Component sizes, descending (giant component first)."""
        canon = canonicalize_labels(self.labels)
        counts = np.bincount(canon) if canon.size else np.zeros(0, dtype=np.int64)
        return np.sort(counts)[::-1]


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Rename labels to first-occurrence order: the partition's normal form.

    Two labelings describe the same partition of the vertices iff their
    canonical forms are identical arrays.  A sort groups equal labels
    into runs; a run's first occurrence is its smallest position, and
    the runs are named 0, 1, ... in the order of their first occurrences.
    """
    labels = np.asarray(labels)
    current_context().tracker.add("scan", work=float(labels.size), depth=1.0)
    flat = labels.reshape(-1)
    n = flat.size
    order = np.argsort(flat)
    ordered = flat.take(order)
    head = np.empty(n, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = head.nonzero()[0]
    first = np.minimum.reduceat(order, starts) if n else starts
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    name = np.empty(n, dtype=np.int64)
    name[is_first.nonzero()[0]] = np.arange(first.size)
    out = np.empty(n, dtype=np.int64)
    out[order] = np.repeat(name.take(first), np.diff(starts, append=n))
    return out.reshape(labels.shape)


def num_components(labels: np.ndarray) -> int:
    """Number of distinct labels."""
    return count_distinct(np.asarray(labels))
