"""Prefix sums (scans), the workhorse primitive of PRAM algorithms.

Every compaction, offset computation and relabeling step in the paper
reduces to a prefix sum.  On a CRCW PRAM an n-element scan costs O(n)
work and O(log n) depth (balanced-tree up-sweep/down-sweep); we execute
it with ``numpy.cumsum`` (one vectorized pass — the guide-recommended
idiom) and charge exactly that PRAM cost to the ambient tracker.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.pram.cost import log_depth
from repro.runtime.context import current_context

__all__ = [
    "exclusive_scan",
    "inclusive_scan",
    "scan_with_total",
    "segmented_scan",
]


def _charge(n: int) -> None:
    """Charge the PRAM cost of one n-element scan."""
    tracker = current_context().tracker
    tracker.add("scan", work=float(n), depth=log_depth(n))


def inclusive_scan(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum: ``out[i] = sum(values[:i+1])``.

    O(n) work, O(log n) depth.
    """
    values = np.asarray(values)
    _charge(values.size)
    return np.cumsum(values)


def exclusive_scan(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: ``out[i] = sum(values[:i])``; ``out[0] = 0``.

    O(n) work, O(log n) depth.
    """
    values = np.asarray(values)
    _charge(values.size)
    out = np.empty(values.size, dtype=np.result_type(values.dtype, np.int64))
    if values.size:
        np.cumsum(values[:-1], out=out[1:])
        out[0] = 0
    return out


def scan_with_total(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Exclusive scan plus the grand total, as PBBS's ``plusScan`` returns.

    Returns ``(offsets, total)`` where ``offsets[i]`` is the exclusive
    prefix sum and ``total = sum(values)``.  This is the shape needed to
    size output arrays before a parallel pack.
    """
    values = np.asarray(values)
    offsets = exclusive_scan(values)
    total = int(offsets[-1] + values[-1]) if values.size else 0
    return offsets, total


def segmented_scan(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: Optional[int] = None
) -> np.ndarray:
    """Per-segment exclusive prefix sums.

    ``segment_ids`` must be non-decreasing (values grouped by segment),
    the layout produced by the frontier bookkeeping in the paper's proof
    of Theorem 1, where each BFS's vertices occupy a contiguous slice of
    the shared frontier array.  O(n) work, O(log n) depth on a PRAM.

    Parameters
    ----------
    values:
        The values to scan.
    segment_ids:
        Same length as *values*; identifies each element's segment.
    num_segments:
        Unused except for validation; inferred when omitted.
    """
    values = np.asarray(values)
    segment_ids = np.asarray(segment_ids)
    if values.shape != segment_ids.shape:
        raise ValueError("values and segment_ids must have the same shape")
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(np.diff(segment_ids) < 0):
        raise ValueError("segment_ids must be non-decreasing (grouped layout)")
    _charge(values.size)
    running = np.cumsum(values)
    # Subtract, within each segment, the running total at the segment's
    # start — a gather of the per-segment boundary values.
    boundaries = np.flatnonzero(np.diff(segment_ids)) + 1
    starts = np.zeros(values.size, dtype=np.int64)
    # carry[i] = inclusive total just before each segment start
    carry = running[boundaries - 1]
    starts[boundaries] = carry - np.concatenate(([0], carry[:-1]))
    seg_base = np.cumsum(starts)
    out = running - seg_base - values
    return out.astype(np.int64, copy=False)
