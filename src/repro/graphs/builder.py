"""Edge-list -> CSR construction (symmetrize, dedup, self-loop removal).

All generators and I/O produce raw ``(u, v)`` edge lists; this module
turns them into the symmetric :class:`~repro.graphs.csr.CSRGraph` the
algorithms consume.  Construction is itself expressed with the
package's parallel primitives (histogram + scan + radix sort), so the
"load the graph" step has an honest work/depth profile too.

:func:`from_edges` sorts once.  It packs each edge, in both
orientations, into the int64 key ``(u << b) | v``, sorts the keys by
value and keeps the distinct ones.  Sorted keys are edges grouped by
source, so the offsets come from a histogram and a scan and the targets
are the keys' low bits.  The grouping sort that
:func:`from_directed_edges` runs is charged all the same, so a build
charges what mirroring, deduplicating and grouping the edges cost.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph
from repro.primitives.scan import exclusive_scan
from repro.primitives.sort import charge_sort, radix_argsort, radix_sort
from repro.runtime.context import current_context

__all__ = ["from_edges", "from_directed_edges", "dedup_edge_list"]


def _validate(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> None:
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError("edge arrays must be 1-D and equal length")
    if src.size == 0:
        return
    lo = min(int(src.min()), int(dst.min()))
    hi = max(int(src.max()), int(dst.max()))
    if lo < 0:
        raise GraphFormatError("negative vertex id in edge list")
    if hi >= num_vertices:
        raise GraphFormatError(
            f"vertex id {hi} out of range for num_vertices={num_vertices}"
        )


def _unique_keys(
    src: np.ndarray, dst: np.ndarray, num_vertices: int, mirror: bool
) -> Tuple[np.ndarray, int]:
    """Sorted distinct keys ``(u << b) | v`` of the non-loop edges, and b.

    ``b`` is the bit length of ``num_vertices - 1``, so the keys sort
    as the pairs ``(u, v)`` do.  With *mirror* each edge is packed in
    both orientations, in place of a mirrored copy of the edge arrays.
    """
    _validate(src, dst, num_vertices)
    bits = max(num_vertices - 1, 0).bit_length()
    keep = src != dst
    src, dst = src[keep], dst[keep]
    halves = ((src, dst), (dst, src)) if mirror else ((src, dst),)
    keys = np.empty(len(halves) * src.size, dtype=np.int64)
    for i, (high, low) in enumerate(halves):
        part = keys[i * src.size : (i + 1) * src.size]
        np.left_shift(high, bits, out=part)
        part |= low
    if keys.size == 0:
        return keys, bits
    # The largest key has 2b bits and n^2 - 1 has 2b - 1 or 2b, the same
    # number of 16-bit passes (2b - 1 is odd), so the sort charges what
    # a sort of the keys u * n + v would.
    top = num_vertices - 1
    keys = radix_sort(keys, max_key=(top << bits) | top)
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    current_context().tracker.add("scan", work=float(keys.size), depth=1.0)
    return keys[first], bits


def dedup_edge_list(
    src: np.ndarray, dst: np.ndarray, num_vertices: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Remove duplicate directed edges and self-loops; the output is
    sorted by ``(src, dst)``.

    Each edge is packed into the int64 key ``(src << b) | dst`` with
    ``b`` the bit length of ``num_vertices - 1``, the keys are sorted
    by value (:func:`~repro.primitives.sort.radix_sort`), each key that
    differs from its predecessor is kept, and the survivors are split
    back with a shift and a mask — the standard linear-work parallel
    dedup (an alternative to the hash table used in contraction; both
    appear in the paper's toolbox).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keys, bits = _unique_keys(src, dst, num_vertices, mirror=False)
    return keys >> bits, keys & ((1 << bits) - 1)


def _offsets(src: np.ndarray, num_vertices: int) -> np.ndarray:
    """CSR offsets of edges with sources *src*: a histogram and a scan."""
    counts = np.bincount(src, minlength=num_vertices) if src.size else np.zeros(
        num_vertices, dtype=np.int64
    )
    current_context().tracker.add("scatter", work=float(src.size), depth=1.0)
    return np.concatenate((exclusive_scan(counts), [src.size])).astype(np.int64)


def from_directed_edges(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    symmetric: bool = False,
    validate: bool = True,
) -> CSRGraph:
    """Build a CSR graph from directed edges, exactly as given.

    No symmetrization, dedup or loop removal — callers wanting the
    undirected input format should use :func:`from_edges`.  The edges
    are grouped by source with a counting pass + scan + scatter.

    ``validate=False`` skips both the edge-range scan and the CSR
    invariant checks (:meth:`CSRGraph.trusted`) — only for callers
    whose arrays are internally generated with the invariants already
    established, like the contraction recursion under the fast
    execution backend.  External data must validate.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if validate:
        _validate(src, dst, num_vertices)
    offsets = _offsets(src, num_vertices)
    # Stable sort by source groups targets into CSR slots.
    order = radix_argsort(src, max_key=max(num_vertices - 1, 0)) if src.size else src
    targets = dst[order] if src.size else dst
    if not validate:
        return CSRGraph.trusted(
            offsets, np.ascontiguousarray(targets), symmetric=symmetric
        )
    return CSRGraph(offsets=offsets, targets=targets, symmetric=symmetric)


def from_edges(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: Optional[int] = None,
    remove_duplicates: bool = True,
) -> CSRGraph:
    """Build the symmetric CSR graph of an undirected edge list.

    Each input pair (u, v) is stored in both directions (the paper's
    convention for the decomposition-based algorithms).  Self-loops are
    dropped; duplicate undirected edges are dropped when
    *remove_duplicates* (the default — all the paper's inputs are
    simple graphs).

    Parameters
    ----------
    num_vertices:
        Vertex-count override; defaults to ``max(id) + 1``.

    Raises :class:`~repro.errors.GraphFormatError` unless *src* and *dst*
    are 1-D and of equal length, with ids in ``[0, num_vertices)``.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError("edge arrays must be 1-D and equal length")
    if num_vertices is None:
        num_vertices = (
            int(max(src.max(initial=-1), dst.max(initial=-1))) + 1 if src.size else 0
        )
    # Mirror every edge, then (optionally) dedup the directed multiset.
    current_context().tracker.add("scan", work=float(2 * src.size), depth=1.0)
    if not remove_duplicates:
        all_src = np.concatenate((src, dst))
        all_dst = np.concatenate((dst, src))
        keep = all_src != all_dst
        return from_directed_edges(
            all_src[keep], all_dst[keep], num_vertices, symmetric=True
        )
    keys, bits = _unique_keys(src, dst, num_vertices, mirror=True)
    # The keys are sorted, so the edges are already grouped by source:
    # the stable grouping sort of from_directed_edges would be the
    # identity.  It is charged, and the targets are used as they are.
    sources = keys >> bits
    offsets = _offsets(sources, num_vertices)
    if sources.size:
        charge_sort(sources.size, max(num_vertices - 1, 0))
    return CSRGraph(offsets=offsets, targets=keys & ((1 << bits) - 1), symmetric=True)
