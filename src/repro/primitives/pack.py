"""Parallel pack / filter (compaction).

"Packing out" deleted edges and compacting BFS frontiers is the step
that dominates the depth of the paper's decomposition (O(log n) per BFS
round).  A pack of n elements is a scan over 0/1 flags followed by a
scatter: O(n) work, O(log n) depth.  We execute it with boolean
indexing (single vectorized pass) and charge that PRAM cost.

The paper also remarks that approximate compaction [Gil-Matias-Vishkin]
would lower the packing depth to O(log* n); :func:`pack` takes an
``approximate`` flag that only changes the *charged* depth, so the
cost-model ablation in ``benchmarks/`` can quantify the remark without
changing any values.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.pram.cost import log_depth
from repro.runtime.context import current_context

__all__ = ["pack", "pack_index", "split_by_flag"]

#: Iterated-log proxy used when charging approximate-compaction depth.
_LOG_STAR = 4.0


def _charge(n: int, approximate: bool) -> None:
    tracker = current_context().tracker
    depth = _LOG_STAR if approximate else log_depth(n)
    tracker.add("scan", work=float(n), depth=depth)


def pack(
    values: np.ndarray, flags: np.ndarray, approximate: bool = False
) -> np.ndarray:
    """Keep ``values[i]`` where ``flags[i]`` is true, preserving order.

    O(n) work; O(log n) depth (O(log* n) with ``approximate=True``,
    which affects only the charged cost — the output is identical).
    """
    values = np.asarray(values)
    flags = np.asarray(flags, dtype=bool)
    if values.shape[0] != flags.shape[0]:
        raise ValueError("values and flags must have equal length")
    _charge(values.shape[0], approximate)
    return values[flags]


def pack_index(flags: np.ndarray, approximate: bool = False) -> np.ndarray:
    """Indices ``i`` where ``flags[i]`` is true, in increasing order.

    The PBBS ``packIndex`` idiom: used to turn a boolean frontier bitmap
    into a sparse frontier array.
    """
    flags = np.asarray(flags, dtype=bool)
    _charge(flags.shape[0], approximate)
    return np.flatnonzero(flags)


def split_by_flag(
    values: np.ndarray, flags: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable two-way split: ``(values[flags], values[~flags])``.

    Used when an edge pass must separate kept (inter-component) edges
    from deleted (intra-component) ones in a single pack.
    """
    values = np.asarray(values)
    flags = np.asarray(flags, dtype=bool)
    if values.shape[0] != flags.shape[0]:
        raise ValueError("values and flags must have equal length")
    _charge(values.shape[0], approximate=False)
    return values[flags], values[~flags]
