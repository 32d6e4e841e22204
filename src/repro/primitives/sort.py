"""Linear-work LSD radix integer sort (the PBBS ``intSort`` stand-in).

The paper's contraction phase collects the vertices of each component
with "the linear-work and O(m^eps) depth (0 < eps < 1) integer sort
algorithm from the Problem Based Benchmark Suite".  This module
implements that primitive as a least-significant-digit radix sort over
16-bit digits.  Each pass is a stable counting sort, which we execute
with NumPy's stable integer ``argsort`` — itself an LSD radix kernel —
so the pass structure, stability guarantees and cost profile all match
the PBBS primitive.

Cost accounting: a sort of n keys spanning ``b`` bits performs
``ceil(b/16)`` passes of O(n) work each; depth is charged as
O(n^eps) with eps = 0.3 per pass, matching the PBBS bound the paper
cites.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.runtime.context import current_context

__all__ = ["radix_argsort", "radix_sort", "sort_pairs_by_key", "RADIX_BITS"]

#: Digit width per pass.
RADIX_BITS = 16

#: Exponent used when charging the O(n^eps) per-pass depth.
_DEPTH_EPS = 0.3


def _num_passes(max_key: int) -> int:
    if max_key <= 0:
        return 1
    bits = int(max_key).bit_length()
    return (bits + RADIX_BITS - 1) // RADIX_BITS


def _charge(n: int, passes: int) -> None:
    tracker = current_context().tracker
    depth_per_pass = float(max(1.0, n**_DEPTH_EPS))
    tracker.add("sort", work=float(n * passes), depth=depth_per_pass * passes)


def radix_argsort(keys: np.ndarray, max_key: Optional[int] = None) -> np.ndarray:
    """Stable sorting permutation for non-negative integer *keys*.

    ``out`` satisfies ``keys[out]`` sorted, with equal keys in input
    order.  Linear work (per pass), O(n^eps) depth per pass.

    Parameters
    ----------
    keys:
        Non-negative integers.
    max_key:
        Optional upper bound on the keys; passing it avoids a reduction
        and bounds the number of passes.  Keys above it are an error.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if keys.min() < 0:
        raise ValueError("radix sort requires non-negative keys")
    if max_key is None:
        max_key = int(keys.max())
    elif keys.max() > max_key:
        raise ValueError("key exceeds declared max_key")
    passes = _num_passes(max_key)
    _charge(n, passes)

    if current_context().backend.optimized:
        # One fused stable sort in place of the per-digit passes: the
        # stable sorting permutation of a key sequence is unique, so
        # this is bit-identical to the pass loop below — the charge
        # above still reflects the simulated pass structure.
        return np.argsort(keys, kind="stable").astype(np.int64, copy=False)

    perm = np.arange(n, dtype=np.int64)
    shifted = keys.astype(np.uint64, copy=False)
    mask = np.uint64((1 << RADIX_BITS) - 1)
    for p in range(passes):
        digit = (shifted >> np.uint64(p * RADIX_BITS)) & mask
        if p > 0:
            digit = digit[perm]
        # Stable counting sort on one 16-bit digit; NumPy's stable
        # integer argsort is an LSD radix kernel, so this *is* the
        # counting-sort pass, not a comparison sort.
        pass_perm = np.argsort(digit, kind="stable")
        perm = perm[pass_perm] if p > 0 else pass_perm.astype(np.int64)
    return perm


def radix_sort(
    keys: np.ndarray, max_key: Optional[int] = None
) -> np.ndarray:
    """Sorted copy of non-negative integer *keys* (stable LSD radix)."""
    keys = np.asarray(keys)
    return keys[radix_argsort(keys, max_key=max_key)]


def sort_pairs_by_key(
    keys: np.ndarray, values: np.ndarray, max_key: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``(keys, values)`` pairs by key, stably.

    This is the shape the contraction phase uses to gather all vertices
    of the same component together (sort vertex ids by component label).
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape[0] != values.shape[0]:
        raise ValueError("keys and values must have equal length")
    perm = radix_argsort(keys, max_key=max_key)
    return keys[perm], values[perm]
