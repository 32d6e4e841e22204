"""Parallel-friendly randomness: hash PRNG, permutations, exponential shifts.

Three pieces the decomposition algorithms need:

* a **counter-based hash PRNG** (splitmix64) so every vertex can draw
  an independent random value in O(1) work with no shared state —
  exactly how PBBS's ``dataGen::hash`` powers its parallel generators;
* a **parallel random permutation**, built by drawing a random 64-bit
  key per element and radix-sorting — the classic linear-work,
  polylog-depth permutation-by-sorting construction.  The paper's §4
  uses such a permutation to simulate exponential start times;
* **exponential shift draws** for the Miller-Peng-Xu decomposition,
  both as exact draws (for the theory-faithful mode) and via the
  paper's permutation + exponentially-growing-chunks simulation (in
  :mod:`repro.decomp.shifts`).
"""

from __future__ import annotations


import numpy as np

from repro.errors import ParameterError
from repro.primitives.sort import charge_sort, packed_argsort, radix_argsort
from repro.runtime.context import current_context

__all__ = [
    "splitmix64",
    "hash_randoms",
    "random_permutation",
    "exponential_shifts",
    "uniform_fractions",
]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix_in_place(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer over uint64 *z*, in place, one scratch array."""
    t = np.empty_like(z)
    np.right_shift(z, _U64(30), out=t)
    z ^= t
    z *= _U64(_MIX1)
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _U64(_MIX2)
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


def _splitmix64_int(x: int) -> int:
    """splitmix64 of one Python int, in masked Python arithmetic."""
    z = (x + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: uint64 -> well-mixed uint64.

    A counter-based generator: ``splitmix64(seed + i)`` yields an
    i.i.d.-quality stream indexed by ``i``, so all draws can happen in
    one data-parallel step.  Returns a fresh array; *x* is not modified.
    """
    return _mix_in_place(np.asarray(x, dtype=_U64) + _U64(_GAMMA))


def _hash_stream(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """The uncharged draw behind :func:`hash_randoms`: callers charge it."""
    base = (seed ^ (stream * 0xD6E8FEB86659FD93)) & _MASK64
    # splitmix64(i + offset) with the generator's own increment folded
    # into the offset; the scalar part stays in Python ints, so no
    # NumPy scalar ever overflows.
    z = np.arange(n, dtype=_U64)
    z += _U64((_splitmix64_int(base) + _GAMMA) & _MASK64)
    return _mix_in_place(z)


def hash_randoms(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. uint64 randoms from a (seed, stream) pair; O(n) work, O(1) depth."""
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    current_context().tracker.add("scan", work=float(n), depth=1.0)
    return _hash_stream(n, seed, stream)


def uniform_fractions(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. uniforms in [0, 1) derived from :func:`hash_randoms`."""
    bits = hash_randoms(n, seed, stream)
    # Use the top 53 bits for a dense double in [0, 1).
    bits >>= _U64(11)
    u = bits.astype(np.float64)
    u *= 1.0 / (1 << 53)
    return u


def random_permutation(n: int, seed: int, stream: int = 1) -> np.ndarray:
    """A uniformly random permutation of ``range(n)``.

    Built by sorting random 64-bit keys (duplicate keys are broken by
    the sort's stability, i.e. by index — with 64-bit keys collisions
    are negligible for any n this package handles).  Linear work,
    polylog depth — the parallel permutation the paper's §4 calls for.

    *stream* decorrelates independent consumers that may share a seed
    (e.g. a generator's label permutation and a decomposition's start
    order — a collision there would correlate BFS start order with
    graph structure).

    The fast backend runs :func:`~repro.primitives.sort.packed_argsort`
    over the keys, so both backends return the same permutation; the
    charge is :func:`~repro.primitives.sort.radix_argsort`'s.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    keys = hash_randoms(n, seed, stream=stream)
    # Radix sort operates on non-negative int64; fold the top bit away.
    keys >>= _U64(1)
    keys63 = keys.view(np.int64)
    if not current_context().backend.optimized:
        return radix_argsort(keys63)
    charge_sort(n, int(keys63.max()))
    return packed_argsort(keys63, _MASK64 >> 1)


def exponential_shifts(n: int, beta: float, seed: int) -> np.ndarray:
    """n i.i.d. Exponential(beta) draws (mean 1/beta), via inverse CDF.

    These are the Miller-Peng-Xu shift values ``delta_v``; the maximum
    is O(log n / beta) w.h.p., which bounds the number of BFS rounds.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0,1), got {beta}")
    u = uniform_fractions(n, seed, stream=2)
    # -log1p(-u) / beta, in place; 1-u is in (0, 1], so log(0) never occurs.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    u /= beta
    return u
