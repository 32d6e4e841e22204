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
from repro.primitives.sort import _charge, _num_passes, radix_argsort
from repro.runtime.context import current_context

__all__ = [
    "splitmix64",
    "hash_randoms",
    "random_permutation",
    "exponential_shifts",
    "uniform_fractions",
]

_U64 = np.uint64


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: uint64 -> well-mixed uint64.

    A counter-based generator: ``splitmix64(seed + i)`` yields an
    i.i.d.-quality stream indexed by ``i``, so all draws can happen in
    one data-parallel step.
    """
    z = np.asarray(x, dtype=_U64) + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def hash_randoms(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. uint64 randoms from a (seed, stream) pair; O(n) work, O(1) depth."""
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    current_context().tracker.add("scan", work=float(n), depth=1.0)
    base = _U64(
        (seed & 0xFFFFFFFFFFFFFFFF)
        ^ ((stream * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF)
    )
    idx = np.arange(n, dtype=_U64)
    return splitmix64(idx + splitmix64(np.array([base], dtype=_U64))[0])


def uniform_fractions(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. uniforms in [0, 1) derived from :func:`hash_randoms`."""
    bits = hash_randoms(n, seed, stream)
    # Use the top 53 bits for a dense double in [0, 1).
    return (bits >> _U64(11)).astype(np.float64) * (1.0 / (1 << 53))


def _argsort_stable_if_tied(keys: np.ndarray) -> np.ndarray:
    """The stable sorting permutation of *keys*, sorted unstably when it can.

    Without ties every sorting permutation is the stable one, so the
    fast (unstable) argsort is checked afterwards for equal adjacent
    sorted keys and redone stably only if it finds one.
    """
    perm = np.argsort(keys)
    ordered = keys[perm]
    if np.any(ordered[1:] == ordered[:-1]):
        perm = np.argsort(keys, kind="stable")
    return perm.astype(np.int64, copy=False)


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

    The fast backend sorts unstably and falls back to the stable sort
    only on a key tie, so both backends return the same permutation;
    the charge is :func:`~repro.primitives.sort.radix_argsort`'s.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    keys = hash_randoms(n, seed, stream=stream)
    # Radix sort operates on non-negative int64; fold the top bit away.
    keys63 = (keys >> _U64(1)).astype(np.int64)
    if not current_context().backend.optimized:
        return radix_argsort(keys63)
    _charge(n, _num_passes(int(keys63.max())))
    return _argsort_stable_if_tied(keys63)


def exponential_shifts(n: int, beta: float, seed: int) -> np.ndarray:
    """n i.i.d. Exponential(beta) draws (mean 1/beta), via inverse CDF.

    These are the Miller-Peng-Xu shift values ``delta_v``; the maximum
    is O(log n / beta) w.h.p., which bounds the number of BFS rounds.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0,1), got {beta}")
    u = uniform_fractions(n, seed, stream=2)
    # Guard log(0); 1-u is in (0, 1].
    return -np.log1p(-u) / beta
