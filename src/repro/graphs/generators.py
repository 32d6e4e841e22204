"""Graph generators: the paper's six inputs plus a test zoo.

The paper's evaluation (Table 1) uses five synthetic graphs from the
PBBS generators plus the real com-Orkut social network:

==========  =====================================================
random      every vertex has 5 edges to uniformly random targets
rMat        R-MAT power-law graph, n = 2^27, m = 5e8 (sparse, many
            components at that density)
rMat2       same generator, much higher edge/vertex ratio (dense)
3D-grid     6-neighbor grid in 3 dimensions, one component
line        a path of length n-1 — the diameter-n adversary
com-Orkut   SNAP social network: 3.07M vertices, 117M edges, dense,
            low-diameter, essentially one giant component
==========  =====================================================

All generators here take explicit sizes so experiments can scale the
paper's inputs down to laptop/CI proportions (DESIGN.md §2).  com-Orkut
cannot be downloaded offline; :func:`orkut_like` builds a synthetic
surrogate with the three properties the algorithms' behaviour keys on
(dense, low-diameter, single giant component) — an R-MAT graph with
community skew plus a random Hamiltonian cycle.

A zoo of small structured generators (star, clique, trees, unions)
supports the test suite's edge cases.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graphs.builder import from_edges
from repro.graphs.csr import CSRGraph
from repro.primitives.rand import random_permutation
from repro.runtime.context import current_context

__all__ = [
    "random_kregular",
    "rmat",
    "rmat_paper",
    "rmat2_paper",
    "grid3d",
    "line_graph",
    "cycle_graph",
    "orkut_like",
    "star_graph",
    "clique",
    "binary_tree",
    "random_gnm",
    "preferential_attachment",
    "small_world",
    "disjoint_union_edges",
    "empty_graph",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_kregular(n: int, k: int = 5, seed: int = 1) -> CSRGraph:
    """The paper's "random" input: each vertex draws *k* random targets.

    Not strictly k-regular (targets collide and symmetrization merges
    duplicates) — this matches the PBBS ``randLocalGraph``-style input
    the paper uses: n vertices, k*n generated edges, one giant component
    w.h.p. for k >= 3.
    """
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    rng = _rng(seed)
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = rng.integers(0, n, size=n * k, dtype=np.int64)
    current_context().tracker.add("scan", work=float(n * k), depth=1.0)
    return from_edges(src, dst, num_vertices=n)


def rmat(
    num_vertices_log2: int,
    num_edges: int,
    a: float = 0.5,
    b: float = 0.1,
    c: float = 0.1,
    seed: int = 1,
) -> CSRGraph:
    """R-MAT recursive-matrix graph [Chakrabarti-Zhan-Faloutsos 2004].

    Each edge independently descends ``num_vertices_log2`` levels of the
    adjacency-matrix quadtree, picking quadrant (a, b, c, d = 1-a-b-c)
    at each level; the paper's rMat inputs use the PBBS defaults
    (a=0.5, b=c=0.1), giving a power-law degree distribution, and at the
    paper's density (m/n ~ 3.7 directed) tens of percent of vertices are
    isolated — hence rMat's 13M+ components.

    Vectorized over all edges, one bit level at a time: O(m log n) total
    generation work (charged as scan).
    """
    src, dst = _rmat_edges(num_vertices_log2, num_edges, a, b, c, _rng(seed))
    return from_edges(src, dst, num_vertices=1 << num_vertices_log2)


def _rmat_edges(
    scale: int, num_edges: int, a: float, b: float, c: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """The raw R-MAT edges of :func:`rmat`: loops and duplicates kept.

    One ``rng.random(num_edges)`` draw per level, into one reused
    buffer.  With ``u`` the draw, the quadrants a, b, c, d are cut at
    the thresholds a, a+b, a+b+c, so the source bit (quadrant c or d)
    is ``u >= a+b`` and the target bit (quadrant b or d) is
    ``(u >= a) ^ (u >= a+b) | (u >= a+b+c)``.  Ids of at most 31 bits
    accumulate in int32 and are widened at the end.
    """
    if not 0 <= scale <= 31:
        raise ParameterError("num_vertices_log2 must be in [0, 31]")
    if num_edges < 0:
        raise ParameterError(f"num_edges must be >= 0, got {num_edges}")
    d = 1.0 - a - b - c
    # Written so that a NaN probability fails the check.
    if not all(0 <= p <= 1 for p in (a, b, c, d)):
        raise ParameterError("R-MAT probabilities must be a valid distribution")
    current_context().tracker.add(
        "scan", work=float(num_edges * max(scale, 1)), depth=1.0
    )
    src = np.zeros(num_edges, dtype=np.int32)
    dst = np.zeros(num_edges, dtype=np.int32)
    u = np.empty(num_edges)
    hi = np.empty(num_edges, dtype=bool)
    bit = np.empty(num_edges, dtype=bool)
    for _level in range(scale):
        rng.random(out=u)
        np.greater_equal(u, a + b, out=hi)
        np.greater_equal(u, a, out=bit)
        bit ^= hi
        src <<= 1
        src |= hi
        np.greater_equal(u, a + b + c, out=hi)
        bit |= hi
        dst <<= 1
        dst |= bit
    return src.astype(np.int64), dst.astype(np.int64)


def rmat_paper(scale: int = 14, edge_factor: float = 3.7, seed: int = 1) -> CSRGraph:
    """Scaled-down analogue of the paper's rMat input.

    The paper's rMat has n = 2^27 and m = 5e8 directed generated edges
    (edge factor ~3.7), sparse enough to leave millions of isolated
    vertices and components.  We keep the edge factor and shrink n.
    """
    n = 1 << scale
    return rmat(scale, int(n * edge_factor), seed=seed)


def rmat2_paper(scale: int = 10, edge_factor: float = 400.0, seed: int = 1) -> CSRGraph:
    """Scaled-down analogue of the paper's dense rMat2 input.

    rMat2 uses the same generator at a much higher edge-to-vertex ratio
    (n = 2^20, m = 4.2e8: factor ~400), yielding a dense, very
    low-diameter graph ("only 5 levels of BFS") that the
    direction-optimizing baselines dominate on.
    """
    n = 1 << scale
    return rmat(scale, int(n * edge_factor), seed=seed)


def grid3d(side: int, seed: Optional[int] = None) -> CSRGraph:
    """The paper's 3D-grid: ``side^3`` vertices, 6-neighbor connectivity.

    Each vertex connects to its 2 neighbors in each dimension (no
    wraparound).  One component; diameter 3*(side-1).  The optional
    *seed* randomly permutes vertex labels, as the paper notes "for the
    synthetic graphs, the vertex labels are randomly assigned".
    """
    if side < 1:
        raise ParameterError(f"side must be >= 1, got {side}")
    n = side**3
    idx = np.arange(n, dtype=np.int64)
    x = idx % side
    y = (idx // side) % side
    z = idx // (side * side)
    srcs = []
    dsts = []
    for axis, coord in (("x", x), ("y", y), ("z", z)):
        step = {"x": 1, "y": side, "z": side * side}[axis]
        mask = coord < side - 1
        srcs.append(idx[mask])
        dsts.append(idx[mask] + step)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    current_context().tracker.add("scan", work=float(3 * n), depth=1.0)
    if seed is not None:
        relabel = random_permutation(n, seed)
        src, dst = relabel[src], relabel[dst]
    return from_edges(src, dst, num_vertices=n)


def line_graph(n: int, seed: Optional[int] = None) -> CSRGraph:
    """The paper's "line": a path of length n-1, the diameter adversary.

    BFS-based connectivity gets no parallelism here; the decomposition
    algorithms' polylog depth is exactly what this input stresses.
    Labels are randomly permuted when *seed* is given.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    if seed is not None:
        relabel = random_permutation(n, seed)
        src, dst = relabel[src], relabel[dst]
    return from_edges(src, dst, num_vertices=n)


def cycle_graph(n: int) -> CSRGraph:
    """A single n-cycle (diameter n/2; one component)."""
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    src = np.arange(n, dtype=np.int64)
    dst = (src + 1) % n
    return from_edges(src, dst, num_vertices=n)


def orkut_like(
    n: int = 30000, avg_degree: float = 38.0, seed: int = 1
) -> CSRGraph:
    """Synthetic surrogate for the com-Orkut social network (offline).

    com-Orkut (SNAP) has 3,072,627 vertices, 117,185,083 edges
    (average degree ~76 directed / 38 undirected), low diameter, heavy
    power-law community structure, and essentially one giant component.
    The reproduction cannot download it, so this surrogate combines:

    * an R-MAT core with strong skew (a=0.57, b=c=0.19) — power-law
      hubs and community structure;
    * a uniform random-neighbor layer giving *every* vertex a baseline
      degree — in the real network even peripheral users have dozens
      of friends, so the massive mid-BFS frontier carries the majority
      of the edges (which is what makes the read-based sweeps pay off
      there);
    * a random Hamiltonian cycle over all n vertices — forcing exactly
      one connected component, as in the real graph.

    These are the properties the paper's experimental narrative keys on
    for com-Orkut (direction-optimizing BFS wins because the graph is
    dense, low-diameter and one-component; decomposition terminates in
    few rounds).  See DESIGN.md §2 for the substitution record.
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if not (math.isfinite(avg_degree) and avg_degree > 0):
        raise ParameterError(
            f"avg_degree must be positive and finite, got {avg_degree}"
        )
    scale = int(np.ceil(np.log2(n)))
    rng = _rng(seed)
    # Uniform layer: ~40% of the degree mass, spread over all vertices.
    base_k = max(2, int(avg_degree * 0.2))
    base_src = np.repeat(np.arange(n, dtype=np.int64), base_k)
    base_dst = rng.integers(0, n, size=n * base_k, dtype=np.int64)
    # R-MAT core (the rest), folded from the 2^scale id space onto [0, n).
    # Its raw edges suffice: the from_edges below mirrors, drops loops
    # and dedups them anyway.
    num_core = max(0, int(n * avg_degree / 2) - n * base_k)
    src, dst = _rmat_edges(scale, num_core, 0.57, 0.19, 0.19, _rng(seed))
    src %= n
    dst %= n
    # Hamiltonian cycle over a random permutation: one giant component.
    perm = random_permutation(n, seed + 17)
    src = np.concatenate((src, base_src, perm))
    dst = np.concatenate((dst, base_dst, np.roll(perm, -1)))
    return from_edges(src, dst, num_vertices=n)


def star_graph(n: int) -> CSRGraph:
    """A star: vertex 0 joined to all others (diameter 2, hub degree n-1).

    Exercises the high-degree-vertex path in frontier expansion.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n == 1:
        return empty_graph(1)
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    return from_edges(src, dst, num_vertices=n)


def clique(n: int) -> CSRGraph:
    """The complete graph K_n (dense extreme; duplicate-heavy contraction)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    src, dst = np.triu_indices(n, k=1)
    return from_edges(src.astype(np.int64), dst.astype(np.int64), num_vertices=n)


def binary_tree(depth: int) -> CSRGraph:
    """A complete binary tree of the given depth (n = 2^(depth+1) - 1)."""
    if depth < 0:
        raise ParameterError(f"depth must be >= 0, got {depth}")
    n = (1 << (depth + 1)) - 1
    if n == 1:
        return empty_graph(1)
    child = np.arange(1, n, dtype=np.int64)
    parent = (child - 1) // 2
    return from_edges(parent, child, num_vertices=n)


def random_gnm(n: int, m: int, seed: int = 1) -> CSRGraph:
    """Erdos-Renyi G(n, m): m undirected edges drawn uniformly (with
    replacement before dedup).  The generic workload for property tests.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ParameterError(f"m must be >= 0, got {m}")
    rng = _rng(seed)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    return from_edges(src, dst, num_vertices=n)


def preferential_attachment(n: int, k: int = 3, seed: int = 1) -> CSRGraph:
    """Barabási-Albert preferential attachment: each new vertex attaches
    *k* edges to targets drawn proportionally to current degree.

    A second power-law family for the test suite, structurally unlike
    R-MAT (always connected, no isolated vertices).  Uses the standard
    repeated-endpoints trick: sampling a uniform element of the running
    edge-endpoint list IS degree-proportional sampling.
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    rng = _rng(seed)
    # endpoint pool seeded with an initial edge 0-1
    pool = [0, 1]
    src = []
    dst = []
    for v in range(2, n):
        picks = rng.integers(0, len(pool), size=min(k, v))
        targets = {pool[p] for p in picks}
        for t in targets:
            src.append(v)
            dst.append(t)
            pool.append(v)
            pool.append(t)
    src_arr = np.concatenate(
        (np.array([0], dtype=np.int64), np.array(src, dtype=np.int64))
    )
    dst_arr = np.concatenate(
        (np.array([1], dtype=np.int64), np.array(dst, dtype=np.int64))
    )
    current_context().tracker.add("seq", work=float(len(src)), depth=0.0)
    return from_edges(src_arr, dst_arr, num_vertices=n)


def small_world(n: int, k: int = 4, p: float = 0.1, seed: int = 1) -> CSRGraph:
    """Watts-Strogatz small world: ring lattice with rewired shortcuts.

    Each vertex connects to its k/2 nearest ring neighbors per side;
    each lattice edge's far endpoint is rewired to a uniform random
    vertex with probability *p*.  Moderate diameter with shortcuts — a
    structure between the paper's 3D-grid and random inputs.
    """
    if n < 4:
        raise ParameterError(f"n must be >= 4, got {n}")
    if k < 2 or k % 2:
        raise ParameterError(f"k must be even and >= 2, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must be in [0,1], got {p}")
    rng = _rng(seed)
    half = k // 2
    base = np.arange(n, dtype=np.int64)
    src = np.repeat(base, half)
    offs = np.tile(np.arange(1, half + 1, dtype=np.int64), n)
    dst = (src + offs) % n
    rewire = rng.random(src.size) < p
    dst = dst.copy()
    dst[rewire] = rng.integers(0, n, size=int(rewire.sum()), dtype=np.int64)
    current_context().tracker.add("scan", work=float(src.size), depth=1.0)
    return from_edges(src, dst, num_vertices=n)


def disjoint_union_edges(graphs: Sequence[CSRGraph]) -> CSRGraph:
    """The disjoint union of several graphs (ids shifted, no cross edges).

    Produces known multi-component inputs for verification tests.
    """
    if not graphs:
        return empty_graph(0)
    srcs = []
    dsts = []
    offset = 0
    for g in graphs:
        s, d = g.edge_array()
        srcs.append(s + offset)
        dsts.append(d + offset)
        offset += g.num_vertices
    src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
    return from_edges(src, dst, num_vertices=offset, remove_duplicates=True)


def empty_graph(n: int) -> CSRGraph:
    """n isolated vertices, no edges (every vertex its own component)."""
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    return CSRGraph(
        offsets=np.zeros(n + 1, dtype=np.int64),
        targets=np.zeros(0, dtype=np.int64),
        symmetric=True,
    )
