"""Linear-work LSD radix integer sort (the PBBS ``intSort`` stand-in).

The paper's contraction phase collects the vertices of each component
with "the linear-work and O(m^eps) depth (0 < eps < 1) integer sort
algorithm from the Problem Based Benchmark Suite".  This module
implements that primitive as a least-significant-digit radix sort over
16-bit digits: ``ceil(b/16)`` passes, each a stable sort on one digit,
for keys of ``b`` bits.  The reference backend runs those passes, one
per-digit loop whose 64-bit-wide digits NumPy sorts stably.

The fast backend computes the same permutation with
:func:`packed_argsort`: each key and its index are packed into one
int64 word, ``((key >> s) << b) | index``, and the words are sorted by
value, in place.  NumPy's int64 argsort is not vectorized, while its
int64 value sort is (SIMD kernels on x86 since NumPy 2), so one value
sort over the packed words beats both an argsort and any digit loop.
Correctness does not rest on that: a stable sorting permutation is
unique, and the packed sort returns it on any host.  :func:`radix_sort`
needs no permutation at all, so there the fast backend value-sorts a
copy of the keys.

Cost accounting: a sort of n keys spanning ``b`` bits performs
``ceil(b/16)`` passes of O(n) work each; depth is charged as
O(n^eps) with eps = 0.3 per pass, matching the PBBS bound the paper
cites.  The charge is computed from sizes, so it does not depend on
which backend executes the sort.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.runtime.context import current_context

__all__ = [
    "charge_sort",
    "packed_argsort",
    "radix_argsort",
    "radix_sort",
    "sort_pairs_by_key",
    "RADIX_BITS",
]

#: Digit width per pass.
RADIX_BITS = 16

#: Exponent used when charging the O(n^eps) per-pass depth.
_DEPTH_EPS = 0.3


def _num_passes(max_key: int) -> int:
    if max_key <= 0:
        return 1
    bits = int(max_key).bit_length()
    return (bits + RADIX_BITS - 1) // RADIX_BITS


def charge_sort(n: int, max_key: int) -> int:
    """Charge one radix sort of *n* keys ``<= max_key``; return its passes.

    For callers that execute the sort another way, or not at all
    because their keys are already in order.
    """
    passes = _num_passes(max_key)
    depth_per_pass = float(max(1.0, n**_DEPTH_EPS))
    current_context().tracker.add(
        "sort", work=float(n * passes), depth=depth_per_pass * passes
    )
    return passes


def _check_and_charge(keys: np.ndarray, max_key: Optional[int]) -> Tuple[int, int]:
    """Validate non-empty *keys* against *max_key* and charge their sort.

    Returns the largest key and the passes charged, which count the
    declared width (the largest key's when *max_key* is None).
    """
    if keys.min() < 0:
        raise ValueError("radix sort requires non-negative keys")
    hi = int(keys.max())
    if max_key is None:
        max_key = hi
    elif hi > max_key:
        raise ValueError("key exceeds declared max_key")
    return hi, charge_sort(keys.shape[0], max_key)


def packed_argsort(keys: np.ndarray, max_key: int) -> np.ndarray:
    """Stable sorting permutation of non-negative *keys* ``<= max_key``.

    The uncharged execution of a sort: callers charge it themselves.
    With ``b`` the bit length of ``n - 1``, each key is packed with its
    index into the int64 word ``((key >> s) << b) | index``, where
    ``s = max(0, bitlen(max_key) + b - 63)`` drops just enough low key
    bits for the word to fit.  One in-place value sort of the words
    then orders them by (key prefix, index).  With ``s == 0`` that is
    the stable order and the low ``b`` bits are the permutation.  With
    ``s > 0``, keys that share a prefix may still be out of order; the
    runs of equal prefixes are found by comparing adjacent words, and
    only their members are re-sorted by (key, index).  Keys already in
    order are their own stable sort, so one comparison pass returns
    the identity for them (graph builds sort source ids that a dedup
    has just sorted).  Keys above *max_key* give an unspecified
    permutation.
    """
    keys = np.asarray(keys)
    if keys.dtype != np.uint64:
        keys = keys.astype(np.int64, copy=False)
    n = keys.shape[0]
    if n < 2 or not (keys[1:] < keys[:-1]).any():
        return np.arange(n, dtype=np.int64)
    b = (n - 1).bit_length()
    s = max(0, int(max_key).bit_length() + b - 63)
    words = (keys >> s if s else keys.astype(np.int64)).view(np.int64)
    words <<= b
    words |= np.arange(n, dtype=np.int64)
    words.sort()
    low = (1 << b) - 1
    if s:
        # Adjacent words share a prefix iff they agree above bit b.
        tied = ((words[1:] ^ words[:-1]) <= low).nonzero()[0]
        if tied.size:
            # Members of different runs differ in prefix, so one
            # stable sort by key over all members keeps each run in
            # place and orders it by (key, index).
            pos = np.union1d(tied, tied + 1)
            members = words[pos] & low
            words[pos] = members[np.argsort(keys[members], kind="stable")]
    words &= low
    return words


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
    hi, passes = _check_and_charge(keys, max_key)

    if current_context().backend.optimized:
        # The charge above reflects the declared key width; packing
        # against the largest key keeps the most key bits in the word.
        return packed_argsort(keys, hi)

    perm = np.arange(n, dtype=np.int64)
    shifted = keys.astype(np.uint64, copy=False)
    mask = np.uint64((1 << RADIX_BITS) - 1)
    for p in range(passes):
        digit = (shifted >> np.uint64(p * RADIX_BITS)) & mask
        if p > 0:
            digit = digit[perm]
        # One stable pass on a 16-bit digit.  The digit is held in a
        # uint64 array, which NumPy timsorts.
        pass_perm = np.argsort(digit, kind="stable")
        perm = perm[pass_perm] if p > 0 else pass_perm.astype(np.int64)
    return perm


def radix_sort(
    keys: np.ndarray, max_key: Optional[int] = None
) -> np.ndarray:
    """Sorted copy of non-negative integer *keys* (stable LSD radix).

    Charged as :func:`radix_argsort`.  The reference backend gathers
    the keys through the per-digit loop's permutation; the fast backend
    sorts a copy of the keys by value, in place, since equal keys are
    indistinguishable and a value sort needs no permutation.
    """
    keys = np.asarray(keys)
    if not current_context().backend.optimized:
        return keys[radix_argsort(keys, max_key=max_key)]
    out = keys.copy()
    if out.shape[0]:
        _check_and_charge(out, max_key)
        out.sort()
    return out


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
