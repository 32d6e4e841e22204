"""Linear-work LSD radix integer sort (the PBBS ``intSort`` stand-in).

The paper's contraction phase collects the vertices of each component
with "the linear-work and O(m^eps) depth (0 < eps < 1) integer sort
algorithm from the Problem Based Benchmark Suite".  This module
implements that primitive as a least-significant-digit radix sort over
16-bit digits: ``ceil(b/16)`` passes, each a stable sort on one digit,
for keys of ``b`` bits.

NumPy's stable ``argsort`` is a radix (counting) sort only for dtypes
of 16 bits or fewer; wider keys are timsorted, O(n log n).  The fast
backend's :func:`lsd_argsort` therefore reads each 16-bit digit of the
int64 keys as a ``uint16`` array (a strided view on little-endian
hosts), gathers only those digits through the permutation built so
far, and runs NumPy's uint16 radix kernel on them — real counting-sort
passes.  The reference backend keeps the historical per-digit loop,
whose digits stay 64 bits wide and are therefore timsorted; both
return the same permutation, since a stable sorting permutation is
unique.

Cost accounting: a sort of n keys spanning ``b`` bits performs
``ceil(b/16)`` passes of O(n) work each; depth is charged as
O(n^eps) with eps = 0.3 per pass, matching the PBBS bound the paper
cites.  The charge is computed from sizes, so it does not depend on
which backend executes the passes.
"""

from __future__ import annotations

import sys
from typing import Optional, Tuple

import numpy as np

from repro.runtime.context import current_context

__all__ = [
    "lsd_argsort",
    "radix_argsort",
    "radix_sort",
    "sort_pairs_by_key",
    "RADIX_BITS",
]

#: Digit width per pass.
RADIX_BITS = 16

#: Exponent used when charging the O(n^eps) per-pass depth.
_DEPTH_EPS = 0.3

#: Digit ``p`` of a 64-bit key is element ``p`` of its four-``uint16``
#: view on little-endian hosts; elsewhere the digits are shifted out.
_LITTLE_ENDIAN = sys.byteorder == "little"
_DIGITS_PER_KEY = 64 // RADIX_BITS
_DIGIT_MASK = (1 << RADIX_BITS) - 1


def _num_passes(max_key: int) -> int:
    if max_key <= 0:
        return 1
    bits = int(max_key).bit_length()
    return (bits + RADIX_BITS - 1) // RADIX_BITS


def _charge(n: int, passes: int) -> None:
    tracker = current_context().tracker
    depth_per_pass = float(max(1.0, n**_DEPTH_EPS))
    tracker.add("sort", work=float(n * passes), depth=depth_per_pass * passes)


def _digit(keys: np.ndarray, p: int) -> np.ndarray:
    """16-bit digit *p* of contiguous 64-bit *keys* as a ``uint16`` array."""
    if _LITTLE_ENDIAN:
        return keys.view(np.uint16)[p::_DIGITS_PER_KEY]
    return ((keys >> (p * RADIX_BITS)) & _DIGIT_MASK).astype(np.uint16)


def lsd_argsort(keys: np.ndarray, max_key: int) -> np.ndarray:
    """Stable sorting permutation of non-negative *keys* ``<= max_key``.

    The uncharged execution of the radix passes: callers charge the
    sort themselves.  One stable ``uint16`` argsort (NumPy's radix
    kernel) per 16-bit digit, least significant first; each later
    digit is gathered through the permutation so far, which is kept in
    int32 while it fits.  Only the 16-bit digits are ever gathered,
    never the full keys.  Keys that are already in order are their
    own stable sort, so one comparison pass returns the identity for
    them (graph builds sort source ids that a dedup has just sorted).
    Keys above *max_key* give an unspecified permutation.
    """
    keys = np.ascontiguousarray(keys)
    if keys.dtype != np.int64 and keys.dtype != np.uint64:
        keys = keys.astype(np.int64)
    n = keys.shape[0]
    if n < 2 or not (keys[1:] < keys[:-1]).any():
        return np.arange(n, dtype=np.int64)
    perm = np.argsort(_digit(keys, 0), kind="stable")
    passes = _num_passes(max_key)
    if passes > 1:
        if n < 2**31:
            perm = perm.astype(np.int32)
        for p in range(1, passes):
            pass_perm = np.argsort(_digit(keys, p).take(perm), kind="stable")
            perm = perm.take(pass_perm)
    return perm.astype(np.int64, copy=False)


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
    hi = int(keys.max())
    if max_key is None:
        max_key = hi
    elif hi > max_key:
        raise ValueError("key exceeds declared max_key")
    passes = _num_passes(max_key)
    _charge(n, passes)

    if current_context().backend.optimized:
        # The charge above reflects the declared key width; the passes
        # run only up to the largest key's top digit (higher digits
        # are all zero, and a stable pass over equal digits is the
        # identity), and return the loop's permutation below.
        return lsd_argsort(keys, hi)

    perm = np.arange(n, dtype=np.int64)
    shifted = keys.astype(np.uint64, copy=False)
    mask = np.uint64((1 << RADIX_BITS) - 1)
    for p in range(passes):
        digit = (shifted >> np.uint64(p * RADIX_BITS)) & mask
        if p > 0:
            digit = digit[perm]
        # One stable pass on a 16-bit digit.  The digit is held in a
        # uint64 array, which NumPy timsorts; lsd_argsort is the same
        # pass on NumPy's uint16 radix kernel.
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
