"""Parallel reductions and histograms.

Reductions cost O(n) work and O(log n) depth on a PRAM (balanced tree).
Histograms over a key range of size k cost O(n) work and O(log n) depth
using per-processor counts plus a transpose-and-scan; we run them with
``numpy.bincount`` and charge that cost.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.pram.cost import log_depth
from repro.runtime.context import current_context

__all__ = ["reduce_sum", "reduce_max", "reduce_min", "count_true", "histogram"]


def _charge(n: int, kind: str = "scan") -> None:
    current_context().tracker.add(kind, work=float(n), depth=log_depth(n))


def reduce_sum(values: np.ndarray) -> float:
    """Sum of *values*; O(n) work, O(log n) depth."""
    values = np.asarray(values)
    _charge(values.size)
    return float(np.sum(values)) if values.size else 0.0


def reduce_max(values: np.ndarray) -> float:
    """Maximum of *values*; raises on empty input."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("reduce_max of empty array")
    _charge(values.size)
    return float(np.max(values))


def reduce_min(values: np.ndarray) -> float:
    """Minimum of *values*; raises on empty input."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("reduce_min of empty array")
    _charge(values.size)
    return float(np.min(values))


def count_true(flags: np.ndarray) -> int:
    """Number of true entries; O(n) work, O(log n) depth."""
    flags = np.asarray(flags, dtype=bool)
    _charge(flags.size)
    return int(np.count_nonzero(flags))


def histogram(keys: np.ndarray, num_bins: Optional[int] = None) -> np.ndarray:
    """Counts of each key in ``[0, num_bins)``.

    Random-scatter memory behaviour, so charged under the ``scatter``
    kind.  Keys must be non-negative integers.
    """
    keys = np.asarray(keys)
    if keys.size and keys.min() < 0:
        raise ValueError("histogram keys must be non-negative")
    _charge(keys.size, kind="scatter")
    if num_bins is None:
        num_bins = int(keys.max()) + 1 if keys.size else 0
    return np.bincount(keys, minlength=num_bins).astype(np.int64, copy=False)
